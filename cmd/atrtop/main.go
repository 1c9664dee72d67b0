// Command atrtop is a polling terminal dashboard for an atrd daemon: job
// throughput, queue depth, latency quantiles, cache effectiveness, and a
// sparkline of recent run throughput, refreshed in place.
//
//	atrtop [-server http://localhost:8437] [-interval 2s] [-n count] [-once]
//
// Every refresh scrapes GET /metrics (Prometheus text exposition) and runs
// it through the in-repo parser and linter before rendering, so atrtop
// doubles as an exposition conformance check: CI runs `atrtop -once`
// against a live daemon and a malformed exposition fails the build.
//
// Every daemon is a coordinator, so the fleet section — live workers
// (the in-process one included), lease traffic, steal-backs, duplicate
// uploads, and quota rejections — renders from the atr_cluster_* families
// whenever they are present.
//
// Exit status: 0 success, 1 scrape/parse/lint failure, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"atr/internal/telemetry"
)

// snapshot is one scrape reduced to the dashboard's numbers.
type snapshot struct {
	at   time.Time
	fams map[string]telemetry.Family

	runsExec float64
	httpReqs float64
}

func main() {
	server := flag.String("server", envOr("ATRD_SERVER", "http://localhost:8437"), "atrd base URL")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	count := flag.Int("n", 0, "refresh this many times then exit (0: until interrupted)")
	once := flag.Bool("once", false, "scrape, lint, and print one static report (no screen clearing)")
	flag.Parse()

	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "atrtop: -interval must be positive")
		os.Exit(2)
	}

	base := strings.TrimRight(*server, "/")
	var prev *snapshot
	var history []float64 // runs/sec per tick, for the sparkline
	iter := 0
	for {
		cur, err := scrape(base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atrtop:", err)
			os.Exit(1)
		}
		if !*once {
			if prev != nil {
				dt := cur.at.Sub(prev.at).Seconds()
				if dt > 0 {
					history = append(history, (cur.runsExec-prev.runsExec)/dt)
					if len(history) > 60 {
						history = history[len(history)-60:]
					}
				}
			}
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(os.Stdout, base, cur, prev, history)
		if *once {
			fmt.Printf("\nexposition OK: %d families parsed and linted\n", len(cur.fams))
			return
		}
		iter++
		if *count > 0 && iter >= *count {
			return
		}
		prev = cur
		time.Sleep(*interval)
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// scrape fetches, parses, and lints one exposition. A response that fails
// the linter is an error, not a render: the dashboard never displays
// numbers from an exposition it cannot vouch for.
func scrape(base string) (*snapshot, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse exposition: %w", err)
	}
	if err := telemetry.Lint(fams); err != nil {
		return nil, fmt.Errorf("lint exposition: %w", err)
	}
	s := &snapshot{at: time.Now(), fams: make(map[string]telemetry.Family, len(fams))}
	for _, f := range fams {
		s.fams[f.Name] = f
	}
	s.runsExec = s.value("atr_runs_executed_total")
	s.httpReqs = s.value("atr_http_requests_total")
	return s, nil
}

// value sums a family's samples — the total across label sets for labeled
// counters, the plain value for unlabeled ones. Missing families read 0.
func (s *snapshot) value(name string) float64 {
	f, ok := s.fams[name]
	if !ok {
		return 0
	}
	total := 0.0
	for _, smp := range f.Samples {
		total += smp.Value
	}
	return total
}

// quantiles estimates p50/p95/p99 for a histogram family, merged across
// label sets. ok is false when the family is absent or empty.
func (s *snapshot) quantiles(name string) (p50, p95, p99 float64, ok bool) {
	f, found := s.fams[name]
	if !found {
		return 0, 0, 0, false
	}
	bounds, cum, _, count, err := telemetry.MergedHistogram(f)
	if err != nil || count == 0 {
		return 0, 0, 0, false
	}
	return telemetry.Quantile(bounds, cum, 0.50),
		telemetry.Quantile(bounds, cum, 0.95),
		telemetry.Quantile(bounds, cum, 0.99), true
}

func render(w *os.File, base string, cur, prev *snapshot, history []float64) {
	uptime := time.Duration(cur.value("atr_uptime_seconds") * float64(time.Second))
	fmt.Fprintf(w, "atrtop — %s    up %s    %s\n\n", base, uptime.Round(time.Second), buildLine(cur))

	fmt.Fprintf(w, "jobs     queued %.0f/%.0f  running %.0f  |  submitted %.0f  done %.0f  failed %.0f  cancelled %.0f  recovered %.0f\n",
		cur.value("atr_jobs_queued"), cur.value("atr_queue_capacity"), cur.value("atr_jobs_running"),
		cur.value("atr_jobs_submitted_total"), cur.value("atr_jobs_done_total"),
		cur.value("atr_jobs_failed_total"), cur.value("atr_jobs_cancelled_total"),
		cur.value("atr_jobs_recovered_total"))

	hits := cur.value("atr_result_cache_hits_total")
	misses := cur.value("atr_result_cache_misses_total")
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = 100 * hits / (hits + misses)
	}
	fmt.Fprintf(w, "runs     executed %.0f%s  from-cache %.0f  |  result cache %.1f%% hit (%.0f/%.0f lookups), %.0f/%.0f resident\n",
		cur.runsExec, rate(cur, prev, cur.runsExec, prevRuns(prev)), cur.value("atr_cluster_units_from_cache_total"),
		hitRate, hits, hits+misses,
		cur.value("atr_result_cache_size"), cur.value("atr_result_cache_capacity"))

	fmt.Fprintf(w, "http     requests %.0f%s  |  limiter clients %.0f  rate-limited %.0f\n",
		cur.httpReqs, rate(cur, prev, cur.httpReqs, prevHTTP(prev)),
		cur.value("atr_rate_clients"), cur.value("atr_rate_limited_total"))

	fmt.Fprintf(w, "runner   programs %.0f (hits %.0f)\n",
		cur.value("atr_runner_programs_cached"), cur.value("atr_runner_program_hits_total"))

	if _, isCluster := cur.fams["atr_cluster_workers"]; isCluster {
		fmt.Fprintf(w, "cluster  workers %.0f (evicted %.0f)  jobs active %.0f  |  units pending %.0f  leased %.0f\n",
			cur.value("atr_cluster_workers"), cur.value("atr_cluster_workers_evicted_total"),
			cur.value("atr_cluster_jobs_active"),
			cur.value("atr_cluster_units_pending"), cur.value("atr_cluster_units_leased"))
		fmt.Fprintf(w, "         dispatched %.0f  stolen %.0f  dup %.0f  |  quota-429 %.0f\n",
			cur.value("atr_cluster_units_dispatched_total"), cur.value("atr_cluster_units_stolen_total"),
			cur.value("atr_cluster_duplicate_uploads_total"), cur.value("atr_cluster_quota_rejected_total"))
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-22s %10s %10s %10s\n", "latency", "p50", "p95", "p99")
	for _, h := range []struct{ label, family string }{
		{"http request", "atr_http_request_duration_seconds"},
		{"queue wait", "atr_queue_wait_seconds"},
		{"run duration", "atr_run_duration_seconds"},
	} {
		p50, p95, p99, ok := cur.quantiles(h.family)
		if !ok {
			fmt.Fprintf(w, "%-22s %10s %10s %10s\n", h.label, "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "%-22s %10s %10s %10s\n", h.label, fmtSec(p50), fmtSec(p95), fmtSec(p99))
	}

	if len(history) > 0 {
		fmt.Fprintf(w, "\nthroughput %s %.1f runs/s\n", sparkline(history), history[len(history)-1])
	}
}

func prevRuns(prev *snapshot) float64 {
	if prev == nil {
		return 0
	}
	return prev.runsExec
}

func prevHTTP(prev *snapshot) float64 {
	if prev == nil {
		return 0
	}
	return prev.httpReqs
}

// rate renders a per-second delta suffix like " (12.3/s)" once two scrapes
// exist; the first tick has no baseline and renders nothing.
func rate(cur, prev *snapshot, curVal, prevVal float64) string {
	if prev == nil {
		return ""
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return ""
	}
	return fmt.Sprintf(" (%.1f/s)", (curVal-prevVal)/dt)
}

// fmtSec renders a duration in seconds with a sensible unit.
func fmtSec(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

var sparks = []rune("▁▂▃▄▅▆▇█")

// sparkline scales the series to its own max — the shape of recent
// throughput, not an absolute scale.
func sparkline(xs []float64) string {
	max := 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	var b strings.Builder
	for _, x := range xs {
		i := 0
		if max > 0 {
			i = int(math.Round(x / max * float64(len(sparks)-1)))
			if i < 0 {
				i = 0
			}
			if i >= len(sparks) {
				i = len(sparks) - 1
			}
		}
		b.WriteRune(sparks[i])
	}
	return b.String()
}

func buildLine(s *snapshot) string {
	f, ok := s.fams["atr_build_info"]
	if !ok || len(f.Samples) == 0 {
		return ""
	}
	l := f.Samples[0].Labels
	out := l["go_version"]
	if rev := l["revision"]; rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		out += " rev " + rev
	}
	return out
}
