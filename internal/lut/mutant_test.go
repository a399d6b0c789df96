package lut_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"chortle/internal/bench"
	"chortle/internal/core"
	"chortle/internal/lut"
	"chortle/internal/network"
	"chortle/internal/truth"
	"chortle/internal/verify"
)

// The mutant test: every suite circuit, mapped at K=4 by the tree and
// the cut engine, gets one truth-table bit flipped in each of a fixed
// sample of its LUTs. verify.NetworkVsCircuit must give each mutant the
// verdict, and the error text, of the same check run block by block
// through reference evaluators (lut.SimulateOracle and oracleNetwork),
// so the compiled simulator neither misses nor invents a mismatch.

const (
	mutantK        = 4
	mutantsPerCkt  = 10 // LUTs sampled per mapped circuit
	mutantPatterns = 8  // random blocks for circuits over 16 inputs
	mutantSeed     = 1
)

// oracleNetwork simulates a network the way the map-keyed simulator did
// before compilation: a fresh topological sort per call, one word per
// node.
func oracleNetwork(nw *network.Network, assign map[string]uint64) (map[string]uint64, error) {
	order, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	val := make([]uint64, len(nw.Nodes))
	for _, n := range order {
		switch n.Op {
		case network.OpInput:
			val[n.ID] = assign[n.Name]
		case network.OpAnd, network.OpOr:
			w := ^uint64(0)
			if n.Op == network.OpOr {
				w = 0
			}
			for _, f := range n.Fanins {
				x := val[f.Node.ID]
				if f.Invert {
					x = ^x
				}
				if n.Op == network.OpAnd {
					w &= x
				} else {
					w |= x
				}
			}
			val[n.ID] = w
		default:
			return nil, fmt.Errorf("network %q: node %q has invalid op", nw.Name, n.Name)
		}
	}
	out := make(map[string]uint64, len(nw.Outputs)+len(nw.Latches))
	for _, o := range nw.Outputs {
		w := val[o.Node.ID]
		if o.Invert {
			w = ^w
		}
		out[o.Name] = w
	}
	for _, l := range nw.Latches {
		w := val[l.D.ID]
		if l.DInv {
			w = ^w
		}
		out[network.LatchKey(l.Q)] = w
	}
	return out, nil
}

// oracleVerify is verify.NetworkVsCircuit as it ran on per-block map
// simulation: the same policy, pattern words and error texts.
func oracleVerify(nw *network.Network, ckt *lut.Circuit, patterns int, seed int64) error {
	var inputs, outputs []string
	for _, in := range nw.Inputs {
		inputs = append(inputs, in.Name)
	}
	for _, o := range nw.Outputs {
		outputs = append(outputs, o.Name)
	}
	for _, l := range nw.Latches {
		outputs = append(outputs, network.LatchKey(l.Q))
	}
	sort.Strings(outputs)
	compare := func(assign map[string]uint64, mask uint64, context string) error {
		ra, err := oracleNetwork(nw, assign)
		if err != nil {
			return fmt.Errorf("verify: simulating first design: %w", err)
		}
		rb, err := lut.SimulateOracle(ckt, assign)
		if err != nil {
			return fmt.Errorf("verify: simulating second design: %w", err)
		}
		for _, o := range outputs {
			wa, oka := ra[o]
			wb, okb := rb[o]
			if !oka || !okb {
				return fmt.Errorf("verify: output %q missing (first=%v second=%v)", o, oka, okb)
			}
			if wa&mask != wb&mask {
				return fmt.Errorf("verify: output %q differs %s: %016x vs %016x (mask %016x)",
					o, context, wa&mask, wb&mask, mask)
			}
		}
		return nil
	}
	if len(inputs) <= verify.ExhaustiveLimit {
		total := uint64(1) << uint(len(inputs))
		for base := uint64(0); base < total; base += 64 {
			assign := exhaustiveBlock(inputs, base, total)
			mask := ^uint64(0)
			end := base + 64
			if total-base < 64 {
				mask = 1<<(total-base) - 1
				end = total
			}
			if err := compare(assign, mask, fmt.Sprintf("at minterms %d..%d", base, end-1)); err != nil {
				return err
			}
		}
		return nil
	}
	if patterns < 1 {
		patterns = 32
	}
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < patterns; p++ {
		assign := make(map[string]uint64, len(inputs))
		for _, in := range inputs {
			assign[in] = rng.Uint64()
		}
		if err := compare(assign, ^uint64(0), fmt.Sprintf("on random block %d (seed %d)", p, seed)); err != nil {
			return err
		}
	}
	return nil
}

// exhaustiveBlock assigns minterms base..base+63 (those below total),
// bit j of input i's word being bit i of minterm base+j.
func exhaustiveBlock(inputs []string, base, total uint64) map[string]uint64 {
	assign := make(map[string]uint64, len(inputs))
	for i, in := range inputs {
		var w uint64
		for j := uint64(0); j < 64 && base+j < total; j++ {
			if (base+j)>>uint(i)&1 == 1 {
				w |= 1 << j
			}
		}
		assign[in] = w
	}
	return assign
}

// exhaustiveWords simulates c by the oracle on every minterm of
// inputs, one output map per 64-minterm block.
func exhaustiveWords(t *testing.T, c *lut.Circuit, inputs []string) []map[string]uint64 {
	var blocks []map[string]uint64
	total := uint64(1) << uint(len(inputs))
	for base := uint64(0); base < total; base += 64 {
		r, err := lut.SimulateOracle(c, exhaustiveBlock(inputs, base, total))
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, r)
	}
	return blocks
}

// differs reports whether c computes other words than want on any
// minterm of inputs, by the oracle.
func differs(t *testing.T, c *lut.Circuit, inputs []string, want []map[string]uint64) bool {
	total := uint64(1) << uint(len(inputs))
	for b, base := 0, uint64(0); base < total; b, base = b+1, base+64 {
		r, err := lut.SimulateOracle(c, exhaustiveBlock(inputs, base, total))
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want[b] {
			if r[name] != w {
				return true
			}
		}
	}
	return false
}

// mutant returns a copy of c with bit `bit` of LUT i's table flipped.
func mutant(c *lut.Circuit, i int, bit uint) *lut.Circuit {
	m := lut.New(c.Name, c.K)
	for _, in := range c.Inputs {
		m.AddInput(in)
	}
	for j, l := range c.LUTs {
		t := l.Table
		if j == i {
			t = truth.New(t.N, t.Bits^1<<bit)
		}
		m.AddLUT(l.Name, l.Inputs, t)
	}
	for _, o := range c.Outputs {
		m.MarkOutput(o.Name, o.Signal, o.Invert)
	}
	for _, l := range c.Latches {
		m.AddLatch(l.Q, l.D, l.DInv, l.Init)
	}
	return m
}

func TestMutantVerdictsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the whole suite twice")
	}
	var mutants, rejected int
	for _, bc := range bench.Suite() {
		nw, err := bench.Optimized(bc)
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]string, len(nw.Inputs))
		for i, in := range nw.Inputs {
			inputs[i] = in.Name
		}
		for _, engine := range []core.Engine{core.EngineTree, core.EngineCut} {
			opts := core.DefaultOptions(mutantK)
			opts.Engine = engine
			res, err := core.Map(nw, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", bc.Name, engine, err)
			}
			ckt := res.Circuit
			var orig []map[string]uint64 // the unmutated circuit's words, once needed
			stride := (len(ckt.LUTs) + mutantsPerCkt - 1) / mutantsPerCkt
			for i := 0; i < len(ckt.LUTs); i += stride {
				rows := uint(1) << uint(ckt.LUTs[i].Table.N)
				m := mutant(ckt, i, uint(i)%rows)
				got := verify.NetworkVsCircuit(nw, m, mutantPatterns, mutantSeed)
				want := oracleVerify(nw, m, mutantPatterns, mutantSeed)
				label := fmt.Sprintf("%s/%v LUT %q", bc.Name, engine, ckt.LUTs[i].Name)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: Verify says %v, oracle says %v", label, got, want)
				}
				mutants++
				if got != nil {
					rejected++
				}
				if len(inputs) > verify.ExhaustiveLimit || got != nil {
					continue
				}
				if orig == nil {
					orig = exhaustiveWords(t, ckt, inputs)
				}
				if differs(t, m, inputs, orig) {
					t.Fatalf("%s: mutant changes the function but verified", label)
				}
			}
		}
	}
	t.Logf("%d mutants, %d rejected", mutants, rejected)
}
