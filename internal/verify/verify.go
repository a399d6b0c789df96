// Package verify checks functional equivalence between representations
// of a design — Boolean networks (internal/network) and mapped LUT
// circuits (internal/lut) — by 64-way parallel simulation: exhaustive
// when the input count permits, seeded-random otherwise. Technology
// mapping must never change functionality; every mapper test and the
// benchmark harness run through these checks.
package verify

import (
	"fmt"
	"math/rand"
	"sort"

	"chortle/internal/lut"
	"chortle/internal/network"
)

// ExhaustiveLimit is the input count up to which equivalence is checked
// on all 2^n minterms rather than random samples.
const ExhaustiveLimit = 16

// Compiled is a design fixed for repeated 64-way parallel simulation:
// a *network.Sim or a *lut.Sim. Eval reads one word per Inputs name and
// writes one word per Outputs name.
type Compiled interface {
	Inputs() []string
	Outputs() []string
	Eval(in, out []uint64)
}

var (
	_ Compiled = (*network.Sim)(nil)
	_ Compiled = (*lut.Sim)(nil)
)

// Equivalent checks that a and b compute identical outputs for the given
// shared input and output names. Inputs with <= ExhaustiveLimit names
// are checked exhaustively; otherwise `patterns` random 64-pattern
// blocks are simulated with the given seed. A design input missing from
// inputs reads as zero. A nil return means no mismatch was found.
func Equivalent(a, b Compiled, inputs, outputs []string, patterns int, seed int64) error {
	shared := make(map[string]int32, len(inputs))
	for i, name := range inputs {
		shared[name] = int32(i)
	}
	h := &harness{
		outputs: outputs,
		words:   make([]uint64, len(inputs)),
		a:       bind(a, shared, outputs),
		b:       bind(b, shared, outputs),
	}
	if len(inputs) <= ExhaustiveLimit {
		return h.exhaustive()
	}
	return h.random(patterns, seed)
}

// bound is a compiled design with the shared names resolved to its
// input and output positions.
type bound struct {
	sim     Compiled
	src     []int32 // design input k reads words[src[k]]; -1 reads zero
	outIdx  []int32 // shared output j is design output outIdx[j]; -1 if absent
	in, out []uint64
}

// bind resolves d's inputs against shared, which maps each shared
// input name to its position, and the shared outputs against d's.
func bind(d Compiled, shared map[string]int32, outputs []string) bound {
	b := bound{
		sim:    d,
		src:    make([]int32, len(d.Inputs())),
		outIdx: make([]int32, len(outputs)),
		in:     make([]uint64, len(d.Inputs())),
		out:    make([]uint64, len(d.Outputs())),
	}
	for k, name := range d.Inputs() {
		b.src[k] = indexOf(shared, name)
	}
	// A repeated output name reports its last word, as a map keyed by
	// output name would.
	own := make(map[string]int32, len(d.Outputs()))
	for j, name := range d.Outputs() {
		own[name] = int32(j)
	}
	for j, name := range outputs {
		b.outIdx[j] = indexOf(own, name)
	}
	return b
}

// indexOf returns m[name], or -1 when name is absent.
func indexOf(m map[string]int32, name string) int32 {
	if i, ok := m[name]; ok {
		return i
	}
	return -1
}

func (b *bound) eval(words []uint64) {
	for k, i := range b.src {
		if i >= 0 {
			b.in[k] = words[i]
		}
	}
	b.sim.Eval(b.in, b.out)
}

// harness holds both bound designs and the shared input words of the
// current 64-pattern block.
type harness struct {
	outputs []string
	words   []uint64
	a, b    bound
}

// check simulates both designs on the current words and returns the
// index of the first output that is missing from either design or whose
// masked words differ, or -1.
func (h *harness) check(mask uint64) int {
	h.a.eval(h.words)
	h.b.eval(h.words)
	for j := range h.outputs {
		ia, ib := h.a.outIdx[j], h.b.outIdx[j]
		if ia < 0 || ib < 0 || h.a.out[ia]&mask != h.b.out[ib]&mask {
			return j
		}
	}
	return -1
}

// fail describes the failure check found at output j; where names the
// block.
func (h *harness) fail(j int, mask uint64, where string) error {
	o := h.outputs[j]
	ia, ib := h.a.outIdx[j], h.b.outIdx[j]
	if ia < 0 || ib < 0 {
		return fmt.Errorf("verify: output %q missing (first=%v second=%v)", o, ia >= 0, ib >= 0)
	}
	return fmt.Errorf("verify: output %q differs %s: %016x vs %016x (mask %016x)",
		o, where, h.a.out[ia]&mask, h.b.out[ib]&mask, mask)
}

// minterms holds, for variable i < 6, the word whose bit j is bit i of
// j: within a 64-minterm block these are the low variables' patterns.
var minterms = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

func (h *harness) exhaustive() error {
	total := uint64(1) << uint(len(h.words))
	for base := uint64(0); base < total; base += 64 {
		mask := ^uint64(0)
		if total-base < 64 {
			mask = 1<<(total-base) - 1
		}
		// Bit j of input i's word is bit i of minterm base+j; base is a
		// multiple of 64, so variables 6 and up are constant per block.
		for i := range h.words {
			if i < len(minterms) {
				h.words[i] = minterms[i] & mask
			} else {
				h.words[i] = -(base >> uint(i) & 1)
			}
		}
		if j := h.check(mask); j >= 0 {
			return h.fail(j, mask, fmt.Sprintf("at minterms %d..%d", base, base+min(64, total-base)-1))
		}
	}
	return nil
}

func (h *harness) random(patterns int, seed int64) error {
	if patterns < 1 {
		patterns = 32
	}
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < patterns; p++ {
		for i := range h.words {
			h.words[i] = rng.Uint64()
		}
		if j := h.check(^uint64(0)); j >= 0 {
			return h.fail(j, ^uint64(0), fmt.Sprintf("on random block %d (seed %d)", p, seed))
		}
	}
	return nil
}

// sharedNames returns a network's input names and its sorted output
// names, latch data inputs included under their pseudo-output names
// (see network.LatchKey).
func sharedNames(nw *network.Network) (inputs, outputs []string) {
	inputs = make([]string, 0, len(nw.Inputs))
	for _, in := range nw.Inputs {
		inputs = append(inputs, in.Name)
	}
	outputs = make([]string, 0, len(nw.Outputs)+len(nw.Latches))
	for _, o := range nw.Outputs {
		outputs = append(outputs, o.Name)
	}
	for _, l := range nw.Latches {
		outputs = append(outputs, network.LatchKey(l.Q))
	}
	sort.Strings(outputs)
	return inputs, outputs
}

// NetworkVsCircuit verifies that a mapped circuit implements its source
// network, deriving the shared input/output name lists from the network.
// Latch data inputs are compared alongside the primary outputs (both
// representations report them as pseudo-outputs), so sequential designs
// are verified over their full combinational core. Each design is
// compiled once; a design that cannot be compiled, such as a circuit
// reading an undefined signal, fails the check.
func NetworkVsCircuit(nw *network.Network, ckt *lut.Circuit, patterns int, seed int64) error {
	inputs, outputs := sharedNames(nw)
	a, err := nw.Compile()
	if err != nil {
		return fmt.Errorf("verify: simulating first design: %w", err)
	}
	b, err := ckt.Compile()
	if err != nil {
		return fmt.Errorf("verify: simulating second design: %w", err)
	}
	return Equivalent(a, b, inputs, outputs, patterns, seed)
}

// NetworkVsNetwork verifies two networks against each other (including
// latch data inputs).
func NetworkVsNetwork(a, b *network.Network, patterns int, seed int64) error {
	inputs, outputs := sharedNames(a)
	ca, err := a.Compile()
	if err != nil {
		return fmt.Errorf("verify: simulating first design: %w", err)
	}
	cb, err := b.Compile()
	if err != nil {
		return fmt.Errorf("verify: simulating second design: %w", err)
	}
	return Equivalent(ca, cb, inputs, outputs, patterns, seed)
}
