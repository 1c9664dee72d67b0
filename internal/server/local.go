package server

import (
	"context"
	"time"

	"atr/internal/pipeline"
	"atr/internal/sweep"
	"atr/internal/telemetry"
)

// localSlot is one slot of the in-process worker. It leases one unit at a
// time and hands the record back by direct call — no HTTP, JSON,
// heartbeat or lease expiry. An idle slot waits on c.idle, which
// admission, reclaim and recovery close; a joined worker's parked poll
// waits on the same channel.
func (c *Coordinator) localSlot(slot int) {
	defer c.wg.Done()
	for c.ctx.Err() == nil {
		c.mu.Lock()
		idle, hook := c.idle, c.beforeRun
		var j *job
		var u sweep.Unit
		var instr uint64
		if as := c.leaseLocked(c.workers[localWorker], 1, time.Now()); len(as) > 0 {
			j = c.jobs[as[0].Job]
			u, instr = j.units[as[0].Seqs[0]], j.grid.Instr
		}
		c.mu.Unlock()
		if j == nil {
			select {
			case <-idle:
			case <-c.ctx.Done():
			}
			continue
		}
		if hook != nil {
			hook(j.id)
		}
		t0 := time.Now()
		rec := sweep.ExecuteUnit(c.ctx, u, unitRunner(c.progs, instr, j.spec.InjectPanic),
			c.opts.Retries, c.opts.Backoff, nil)
		dur := time.Since(t0)
		if c.ctx.Err() != nil && rec.Err != "" {
			return // drained mid-retry: the unit re-executes after a restart
		}
		c.tm.runDuration.Observe(dur)
		c.emitSpan(j.id, telemetry.Span{
			Name: "run", RunKey: u.Key, Seq: u.Seq, Worker: slot,
			Bench: u.Profile.Name, Scheme: u.Config.Scheme.String(), Err: rec.Err,
		}, t0, dur)
		c.mu.Lock()
		c.deliverLocked(j, localWorker, rec)
		c.mu.Unlock()
	}
}

// unitRunner is every worker's RunFunc: sweep.RunUnit over a shared
// program cache, with the job's fault injection applied by grid position
// exactly as the offline engine applies it.
func unitRunner(progs *sweep.Programs, instr uint64, injectPanic int) sweep.RunFunc {
	fn := func(_ context.Context, u sweep.Unit) (pipeline.Result, error) {
		res, _, err := sweep.RunUnit(u, progs.Get(u.Profile), instr)
		return res, err
	}
	if injectPanic > 0 {
		return sweep.InjectPanicRun(fn, injectPanic)
	}
	return fn
}
