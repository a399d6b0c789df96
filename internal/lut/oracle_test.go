package lut

import (
	"math/rand"
	"strconv"
	"testing"

	"chortle/internal/truth"
)

// SimulateOracle is the reference the compiled evaluator is checked
// against: a map-keyed, per-pattern evaluator that re-derives the
// topological order on every call and looks each LUT's table up one
// pattern bit at a time. It reads an undefined signal as 0, as the
// evaluator it preserves did; the compiled one rejects such a circuit
// first. Exported for the external mutant test in this directory.
func SimulateOracle(c *Circuit, assign map[string]uint64) (map[string]uint64, error) {
	order, err := c.topoOrder()
	if err != nil {
		return nil, err
	}
	val := make(map[string]uint64, len(order)+len(c.Inputs))
	for _, in := range c.Inputs {
		val[in] = assign[in]
	}
	for _, l := range order {
		var w uint64
		for b := 0; b < 64; b++ {
			var m uint
			for i, in := range l.Inputs {
				if val[in]>>uint(b)&1 == 1 {
					m |= 1 << uint(i)
				}
			}
			if l.Table.Eval(m) {
				w |= 1 << uint(b)
			}
		}
		val[l.Name] = w
	}
	out := make(map[string]uint64, len(c.Outputs)+len(c.Latches))
	for _, o := range c.Outputs {
		w := val[o.Signal]
		if o.Invert {
			w = ^w
		}
		out[o.Name] = w
	}
	for _, l := range c.Latches {
		w := val[l.D]
		if l.DInv {
			w = ^w
		}
		out["$latch$"+l.Q] = w
	}
	return out, nil
}

// randomCircuit builds a valid circuit of nLUT LUTs over nIn inputs,
// each LUT reading 0..k earlier signals with a random table. Outputs
// are random signals with random polarity, and every third input is a
// latch output fed by a random signal.
func randomCircuit(rng *rand.Rand, k, nIn, nLUT int) *Circuit {
	c := New("rand", k)
	var sigs []string
	for i := 0; i < nIn; i++ {
		name := "i" + strconv.Itoa(i)
		c.AddInput(name)
		sigs = append(sigs, name)
	}
	for l := 0; l < nLUT; l++ {
		n := rng.Intn(k + 1)
		if n > len(sigs) {
			n = len(sigs)
		}
		ins := make([]string, n)
		for i, p := range rng.Perm(len(sigs))[:n] {
			ins[i] = sigs[p]
		}
		name := "l" + strconv.Itoa(l)
		c.AddLUT(name, ins, truth.New(n, rng.Uint64()))
		sigs = append(sigs, name)
	}
	nOut := 1 + rng.Intn(4)
	for o := 0; o < nOut; o++ {
		c.MarkOutput("o"+strconv.Itoa(o), sigs[rng.Intn(len(sigs))], rng.Intn(2) == 1)
	}
	for i := 0; i < nIn; i += 3 {
		c.AddLatch(c.Inputs[i], sigs[rng.Intn(len(sigs))], rng.Intn(2) == 1, '0')
	}
	return c
}

// TestCompiledMatchesOracle is the property test behind the compiled
// evaluator: on random circuits over K = 1..6 (constant LUTs, inverted
// outputs and latches included), Simulate returns exactly the oracle's
// output words, also when the assignment omits inputs.
func TestCompiledMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		k := 1 + trial%6
		c := randomCircuit(rng, k, 1+rng.Intn(8), 1+rng.Intn(30))
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: random circuit invalid: %v", trial, err)
		}
		assign := make(map[string]uint64)
		for _, in := range c.Inputs {
			if rng.Intn(5) > 0 { // some inputs left out: they read 0
				assign[in] = rng.Uint64()
			}
		}
		want, err := SimulateOracle(c, assign)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Simulate(assign)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d outputs, oracle %d", trial, len(got), len(want))
		}
		for name, w := range want {
			if got[name] != w {
				t.Fatalf("trial %d K=%d: output %q = %016x, oracle %016x\n%v",
					trial, k, name, got[name], w, c)
			}
		}
	}
}
