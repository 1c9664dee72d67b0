// Package logicsim builds a structural gate-level netlist of the bulk
// no-early-release marking logic of §4.2.2 / Fig 9 and evaluates the §4.4
// hardware-cost claims: logic levels on the worst-case path, gate count, and
// the achievable clock frequency with and without pipelining.
//
// The modeled circuit is the unpipelined serial-semantics design: for each
// of the N rename ways, the logic must observe the SRT as updated by all
// older ways in the same group (a flusher marks the mappings current *at its
// own position*). Each way stage therefore contains, per architectural
// register, a destination comparator and a validity-propagation mux, chained
// across ways — which is what makes the combinational depth proportional to
// N and motivates the paper's N-stage pipelined variant.
package logicsim

import "fmt"

// GateKind enumerates the primitive cells.
type GateKind uint8

// Primitive gate kinds (two-input unless noted).
const (
	GateInput GateKind = iota
	GateConst
	GateNOT
	GateAND
	GateOR
	GateXOR
	GateXNOR
)

func (k GateKind) String() string {
	switch k {
	case GateInput:
		return "input"
	case GateConst:
		return "const"
	case GateNOT:
		return "not"
	case GateAND:
		return "and"
	case GateOR:
		return "or"
	case GateXOR:
		return "xor"
	case GateXNOR:
		return "xnor"
	}
	return "?"
}

// Wire identifies a gate output within a netlist.
type Wire int32

// Netlist is a combinational circuit under construction.
type Netlist struct {
	kinds  []GateKind
	in0    []Wire
	in1    []Wire
	levels []int32
	consts []bool
}

// New returns an empty netlist.
func New() *Netlist { return &Netlist{} }

func (n *Netlist) add(k GateKind, a, b Wire) Wire {
	lvl := int32(0)
	switch k {
	case GateInput, GateConst:
	case GateNOT:
		lvl = n.levels[a] + 1
	default:
		la, lb := n.levels[a], n.levels[b]
		if lb > la {
			la = lb
		}
		lvl = la + 1
	}
	n.kinds = append(n.kinds, k)
	n.in0 = append(n.in0, a)
	n.in1 = append(n.in1, b)
	n.levels = append(n.levels, lvl)
	n.consts = append(n.consts, false)
	return Wire(len(n.kinds) - 1)
}

// Input creates a primary input.
func (n *Netlist) Input() Wire { return n.add(GateInput, -1, -1) }

// Const creates a constant wire.
func (n *Netlist) Const(v bool) Wire {
	w := n.add(GateConst, -1, -1)
	n.consts[w] = v
	return w
}

// Not returns ¬a.
func (n *Netlist) Not(a Wire) Wire { return n.add(GateNOT, a, -1) }

// And returns a∧b.
func (n *Netlist) And(a, b Wire) Wire { return n.add(GateAND, a, b) }

// Or returns a∨b.
func (n *Netlist) Or(a, b Wire) Wire { return n.add(GateOR, a, b) }

// Xnor returns ¬(a⊕b).
func (n *Netlist) Xnor(a, b Wire) Wire { return n.add(GateXNOR, a, b) }

// Mux returns sel ? a : b (2 levels, 3 gates plus the inverter).
func (n *Netlist) Mux(sel, a, b Wire) Wire {
	return n.Or(n.And(sel, a), n.And(n.Not(sel), b))
}

// ReduceOr builds a balanced OR tree.
func (n *Netlist) ReduceOr(ws []Wire) Wire {
	switch len(ws) {
	case 0:
		return n.Const(false)
	case 1:
		return ws[0]
	}
	mid := len(ws) / 2
	return n.Or(n.ReduceOr(ws[:mid]), n.ReduceOr(ws[mid:]))
}

// ReduceAnd builds a balanced AND tree.
func (n *Netlist) ReduceAnd(ws []Wire) Wire {
	switch len(ws) {
	case 0:
		return n.Const(true)
	case 1:
		return ws[0]
	}
	mid := len(ws) / 2
	return n.And(n.ReduceAnd(ws[:mid]), n.ReduceAnd(ws[mid:]))
}

// EqualsConst builds a comparator of a bit vector against a constant.
func (n *Netlist) EqualsConst(bits []Wire, v uint64) Wire {
	terms := make([]Wire, len(bits))
	for i, b := range bits {
		if v>>uint(i)&1 == 1 {
			terms[i] = b
		} else {
			terms[i] = n.Not(b)
		}
	}
	return n.ReduceAnd(terms)
}

// GateCount returns the number of logic gates (excluding inputs/constants).
func (n *Netlist) GateCount() int {
	c := 0
	for _, k := range n.kinds {
		if k != GateInput && k != GateConst {
			c++
		}
	}
	return c
}

// Levels returns the worst-case combinational depth over the given outputs
// (or the whole netlist when outs is empty).
func (n *Netlist) Levels(outs ...Wire) int {
	max := int32(0)
	if len(outs) == 0 {
		for _, l := range n.levels {
			if l > max {
				max = l
			}
		}
	} else {
		for _, w := range outs {
			if n.levels[w] > max {
				max = n.levels[w]
			}
		}
	}
	return int(max)
}

// Eval computes all wires for the given input assignment (inputs in creation
// order) and returns a lookup function. Used by tests to verify the circuit
// against the behavioural model.
func (n *Netlist) Eval(inputs []bool) func(Wire) bool {
	vals := make([]bool, len(n.kinds))
	ii := 0
	for w, k := range n.kinds {
		switch k {
		case GateInput:
			if ii >= len(inputs) {
				panic("logicsim: not enough input values")
			}
			vals[w] = inputs[ii]
			ii++
		case GateConst:
			vals[w] = n.consts[w]
		case GateNOT:
			vals[w] = !vals[n.in0[w]]
		case GateAND:
			vals[w] = vals[n.in0[w]] && vals[n.in1[w]]
		case GateOR:
			vals[w] = vals[n.in0[w]] || vals[n.in1[w]]
		case GateXOR:
			vals[w] = vals[n.in0[w]] != vals[n.in1[w]]
		case GateXNOR:
			vals[w] = vals[n.in0[w]] == vals[n.in1[w]]
		}
	}
	return func(w Wire) bool { return vals[w] }
}

// reduceOrSerial builds a linear OR chain (what a naive synthesis of
// sequential RTL produces; depth grows linearly instead of logarithmically).
func (n *Netlist) reduceOrSerial(ws []Wire) Wire {
	if len(ws) == 0 {
		return n.Const(false)
	}
	acc := ws[0]
	for _, w := range ws[1:] {
		acc = n.Or(acc, w)
	}
	return acc
}

// reduceAndSerial builds a linear AND chain.
func (n *Netlist) reduceAndSerial(ws []Wire) Wire {
	if len(ws) == 0 {
		return n.Const(true)
	}
	acc := ws[0]
	for _, w := range ws[1:] {
		acc = n.And(acc, w)
	}
	return acc
}

// BulkMark is the constructed marking circuit with its interface wires.
type BulkMark struct {
	Net *Netlist

	Ways     int
	ArchRegs int
	archBits int

	// Inputs, per way: flusher flag, destination-valid flag, destination
	// architectural register id bits.
	Flusher  []Wire
	DstValid []Wire
	DstArch  [][]Wire

	// Outputs: MarkSRT[a] — mark the ptag currently mapped by SRT entry a
	// (as of the start of the group, unless an older way redefined a, in
	// which case that way's ptag is marked through MarkWay instead);
	// MarkWay[j] — mark way j's newly allocated ptag.
	MarkSRT []Wire
	MarkWay []Wire
}

// BuildBulkMark constructs the serial-semantics bulk marking circuit for an
// N-way rename group over archRegs architectural registers, using balanced
// reduction trees (the optimized implementation).
func BuildBulkMark(ways, archRegs int) *BulkMark {
	return buildBulkMark(ways, archRegs, false)
}

// BuildBulkMarkNaive constructs the same circuit with linear gate chains and
// mux-based state propagation, mirroring what straightforward synthesis of
// the serial RTL produces; its depth and gate count correspond to the
// paper's reported Yosys results (§4.4: 42 levels, 2,960 gates at 8-wide).
func BuildBulkMarkNaive(ways, archRegs int) *BulkMark {
	return buildBulkMark(ways, archRegs, true)
}

func buildBulkMark(ways, archRegs int, naive bool) *BulkMark {
	bits := 0
	for 1<<bits < archRegs {
		bits++
	}
	n := New()
	reduceOr := n.ReduceOr
	reduceAnd := n.ReduceAnd
	if naive {
		reduceOr = n.reduceOrSerial
		reduceAnd = n.reduceAndSerial
	}
	b := &BulkMark{Net: n, Ways: ways, ArchRegs: archRegs, archBits: bits}
	for i := 0; i < ways; i++ {
		b.Flusher = append(b.Flusher, n.Input())
		b.DstValid = append(b.DstValid, n.Input())
		dst := make([]Wire, bits)
		for j := range dst {
			dst[j] = n.Input()
		}
		b.DstArch = append(b.DstArch, dst)
	}

	// ownsSRT[a] tracks, per way position, whether SRT entry a is still
	// the live mapping for a (no older way in the group redefined it).
	// This chain is what serializes the ways.
	ownsSRT := make([]Wire, archRegs)
	for a := range ownsSRT {
		ownsSRT[a] = n.Const(true)
	}
	// wayLive[j][later stages] tracks whether way j's destination is still
	// the live mapping at the current position.
	wayLive := make([][]Wire, ways)

	markSRT := make([][]Wire, archRegs) // per arch: terms to OR
	markWay := make([][]Wire, ways)

	eqConst := func(bits []Wire, v uint64) Wire {
		terms := make([]Wire, len(bits))
		for i, w := range bits {
			if v>>uint(i)&1 == 1 {
				terms[i] = w
			} else {
				terms[i] = n.Not(w)
			}
		}
		return reduceAnd(terms)
	}

	for i := 0; i < ways; i++ {
		// eq[a]: way i redefines architectural register a.
		eq := make([]Wire, archRegs)
		for a := 0; a < archRegs; a++ {
			eq[a] = n.And(b.DstValid[i], eqConst(b.DstArch[i], uint64(a)))
		}
		// A flusher at way i marks every mapping live at its position.
		for a := 0; a < archRegs; a++ {
			markSRT[a] = append(markSRT[a], n.And(b.Flusher[i], ownsSRT[a]))
		}
		for j := 0; j < i; j++ {
			live := wayLive[j][len(wayLive[j])-1]
			markWay[j] = append(markWay[j], n.And(b.Flusher[i], live))
		}
		// A branch-class flusher also marks its own destination; the
		// flag input is shared here (fault-class gating happens in the
		// decoder before this block), so own-marking uses the same
		// flusher wire ANDed with dst validity.
		markWay[i] = append(markWay[i], n.And(b.Flusher[i], b.DstValid[i]))

		// Update liveness chains past way i. The naive variant models
		// synthesized priority-mux structures; the optimized one uses
		// AND-NOT kills.
		for a := 0; a < archRegs; a++ {
			if naive {
				ownsSRT[a] = n.Mux(eq[a], n.Const(false), ownsSRT[a])
			} else {
				ownsSRT[a] = n.And(ownsSRT[a], n.Not(eq[a]))
			}
		}
		for j := 0; j < i; j++ {
			prev := wayLive[j][len(wayLive[j])-1]
			// way j's dst stops being live if way i redefines the
			// same architectural register.
			sameArch := make([]Wire, 0, b.archBits)
			for k := 0; k < b.archBits; k++ {
				sameArch = append(sameArch, n.Xnor(b.DstArch[j][k], b.DstArch[i][k]))
			}
			redef := n.And(b.DstValid[i], reduceAnd(sameArch))
			if naive {
				wayLive[j] = append(wayLive[j], n.Mux(redef, n.Const(false), prev))
			} else {
				wayLive[j] = append(wayLive[j], n.And(prev, n.Not(redef)))
			}
		}
		wayLive[i] = []Wire{b.DstValid[i]}
	}

	for a := 0; a < archRegs; a++ {
		b.MarkSRT = append(b.MarkSRT, reduceOr(markSRT[a]))
	}
	for j := 0; j < ways; j++ {
		b.MarkWay = append(b.MarkWay, reduceOr(markWay[j]))
	}
	return b
}

// Outputs returns all output wires.
func (b *BulkMark) Outputs() []Wire {
	out := append([]Wire(nil), b.MarkSRT...)
	return append(out, b.MarkWay...)
}

// Synthesis reports the §4.4 cost metrics for a built circuit.
type Synthesis struct {
	Gates      int
	Levels     int
	DelayPS    float64 // FO4 delay with 100% wire/fan-in margin, as in §4.4
	ClockGHz   float64
	PipeStages int
	PipeGHz    float64 // frequency with the circuit cut into PipeStages
}

// FO4ps is the assumed fanout-of-4 inverter delay at 5nm (§4.4 cites 4.5ps).
const FO4ps = 4.5

// Synthesize computes the metrics for b, optionally pipelined into stages.
func (b *BulkMark) Synthesize(stages int) Synthesis {
	levels := b.Net.Levels(b.Outputs()...)
	delay := float64(levels) * FO4ps * 2 // 100% margin per the paper
	s := Synthesis{
		Gates:      b.Net.GateCount(),
		Levels:     levels,
		DelayPS:    delay,
		ClockGHz:   1000.0 / delay,
		PipeStages: stages,
	}
	if stages > 1 {
		per := (levels + stages - 1) / stages
		s.PipeGHz = 1000.0 / (float64(per) * FO4ps * 2)
	} else {
		s.PipeGHz = s.ClockGHz
	}
	return s
}

func (s Synthesis) String() string {
	return fmt.Sprintf("%d gates, %d levels, %.0f ps (%.2f GHz; %d-stage: %.2f GHz)",
		s.Gates, s.Levels, s.DelayPS, s.ClockGHz, s.PipeStages, s.PipeGHz)
}
