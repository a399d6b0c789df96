package chortle

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"chortle/internal/bench"
	"chortle/internal/network"
)

// The cross-engine differential harness: all three engines — the
// paper's tree DP, the MIS II-style baseline, and the priority-cut DAG
// mapper — must implement the same function on every bundled benchmark
// at every K. Each engine's circuit is simulated against the unmapped
// network and directly against the other engines' circuits under the
// 64-way simulator, so a functional divergence in any engine fails
// here with the circuit, K, and first differing output named.

// diffNets caches the optimized benchmark networks across the
// differential tests (bench.Optimized is the expensive part).
var (
	diffOnce sync.Once
	diffNets map[string]*network.Network
)

func differentialSuite(t *testing.T) map[string]*network.Network {
	t.Helper()
	diffOnce.Do(func() {
		diffNets = make(map[string]*network.Network)
		for _, c := range goldenCircuits() {
			nw, err := bench.Optimized(c)
			if err != nil {
				t.Fatalf("preparing %s: %v", c.Name, err)
			}
			diffNets[c.Name] = nw
		}
	})
	return diffNets
}

// simPoints derives the shared input/output name lists two circuits of
// the same network are compared over (latch data inputs included).
func simPoints(nw *network.Network) (inputs, outputs []string) {
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
	return inputs, outputs
}

// exhaustiveDiffLimit is the input count up to which the differential
// harness compares all 2^n minterms; above it, 64 seeded random
// 64-pattern blocks. Lower than verify.ExhaustiveLimit because the
// harness simulates four designs per block across five Ks — at 16
// inputs the exhaustive sweep alone would dominate the whole suite.
const exhaustiveDiffLimit = 12

// simulatable is a design the harness simulates block by block through
// its map-in/map-out Simulate wrapper: a network or a mapped circuit.
type simulatable interface {
	Simulate(assign map[string]uint64) (map[string]uint64, error)
}

// assertSimulateIdentical simulates every design on the same input
// blocks and requires identical output words everywhere: design 0 is
// the reference (the unmapped network), so a mismatch names the
// diverging engine, the output, and the block.
func assertSimulateIdentical(t *testing.T, names []string, designs []simulatable, inputs, outputs []string, label string) {
	t.Helper()
	check := func(assign map[string]uint64, mask uint64, context string) {
		ref, err := designs[0].Simulate(assign)
		if err != nil {
			t.Fatalf("%s: simulating %s: %v", label, names[0], err)
		}
		for i := 1; i < len(designs); i++ {
			got, err := designs[i].Simulate(assign)
			if err != nil {
				t.Fatalf("%s: simulating %s: %v", label, names[i], err)
			}
			for _, o := range outputs {
				if ref[o]&mask != got[o]&mask {
					t.Fatalf("%s: %s output %q differs from %s %s: %016x vs %016x",
						label, names[i], o, names[0], context, got[o]&mask, ref[o]&mask)
				}
			}
		}
	}
	if len(inputs) <= exhaustiveDiffLimit {
		total := uint64(1) << uint(len(inputs))
		for base := uint64(0); base < total; base += 64 {
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
			mask := ^uint64(0)
			if total-base < 64 {
				mask = 1<<(total-base) - 1
			}
			check(assign, mask, fmt.Sprintf("at minterms %d..", base))
		}
		return
	}
	rng := rand.New(rand.NewSource(1))
	for p := 0; p < 64; p++ {
		assign := make(map[string]uint64, len(inputs))
		for _, in := range inputs {
			assign[in] = rng.Uint64()
		}
		check(assign, ^uint64(0), fmt.Sprintf("on random block %d", p))
	}
}

func TestCrossEngineDifferential(t *testing.T) {
	nets := differentialSuite(t)
	engines := []Engine{EngineTree, EngineMIS, EngineCut}
	for _, c := range goldenCircuits() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			nw := nets[c.Name]
			inputs, outputs := simPoints(nw)
			for k := 2; k <= 6; k++ {
				if testing.Short() && k != 3 && k != 5 {
					continue
				}
				names := []string{"network"}
				designs := []simulatable{nw}
				for _, eng := range engines {
					opts := DefaultOptions(k)
					opts.Engine = eng
					res, err := Map(nw, opts)
					if err != nil {
						t.Fatalf("K=%d engine=%s: %v", k, eng, err)
					}
					names = append(names, eng.String())
					designs = append(designs, res.Circuit)
				}
				assertSimulateIdentical(t, names, designs, inputs, outputs,
					fmt.Sprintf("%s K=%d", c.Name, k))
			}
		})
	}
}

// TestCutBeatsTreeOnReconvergent pins the cut engine's quality claim:
// on the benchmarks whose reconvergent structure the fanout-free tree
// decomposition is known to map poorly, the priority-cut cover must
// strictly beat the tree DP's LUT count at K=3. These margins are also
// recorded in the goldens; this test states the claim directly.
func TestCutBeatsTreeOnReconvergent(t *testing.T) {
	nets := differentialSuite(t)
	losers := []string{"count", "9symml", "xor5", "parity", "rd53"}
	for _, name := range losers {
		nw, ok := nets[name]
		if !ok {
			t.Fatalf("benchmark %q missing from the suite", name)
		}
		treeOpts := DefaultOptions(3)
		tres, err := Map(nw, treeOpts)
		if err != nil {
			t.Fatalf("%s tree: %v", name, err)
		}
		cutOpts := DefaultOptions(3)
		cutOpts.Engine = EngineCut
		cres, err := Map(nw, cutOpts)
		if err != nil {
			t.Fatalf("%s cut: %v", name, err)
		}
		if cres.LUTs >= tres.LUTs {
			t.Errorf("%s at K=3: cut %d LUTs vs tree %d — the reconvergent win regressed",
				name, cres.LUTs, tres.LUTs)
		}
	}
}

// TestCutEngineProvenancePartition runs the cover-partition invariant
// on the real benchmarks (the random-DAG version lives in
// internal/cut): with provenance on, the selected cones exactly
// partition the prepared subject graph's gates.
func TestCutEngineProvenancePartition(t *testing.T) {
	nets := differentialSuite(t)
	for _, name := range []string{"count", "alu2", "rot", "9symml"} {
		nw := nets[name]
		opts := DefaultOptions(4)
		opts.Engine = EngineCut
		opts.Provenance = true
		res, err := Map(nw, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Prepared == nil {
			t.Fatalf("%s: Provenance set but Prepared nil", name)
		}
		gates := make(map[string]bool)
		for _, n := range res.Prepared.Nodes {
			if !n.IsInput() {
				gates[n.Name] = true
			}
		}
		if err := res.Circuit.CheckProvenance(gates); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, l := range res.Circuit.LUTs {
			p := res.Circuit.ProvenanceOf(l.Name)
			if p == nil {
				t.Fatalf("%s: LUT %q has no provenance", name, l.Name)
			}
			if p.Origin.String() != "cut" {
				t.Errorf("%s: LUT %q origin %q, want cut", name, l.Name, p.Origin)
			}
		}
	}
}

// TestEngineOptionSurface pins the engine-selection API semantics:
// parsing, the duplication-search rejection, and repacking reaching
// every engine.
func TestEngineOptionSurface(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"", EngineTree, true}, {"tree", EngineTree, true}, {"TREE", EngineTree, true},
		{"mis", EngineMIS, true}, {" cut ", EngineCut, true}, {"abc", EngineTree, false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if EngineTree.String() != "tree" || EngineMIS.String() != "mis" || EngineCut.String() != "cut" {
		t.Error("engine names drifted")
	}

	nets := differentialSuite(t)
	nw := nets["count"]
	for _, eng := range []Engine{EngineMIS, EngineCut} {
		opts := DefaultOptions(4)
		opts.Engine = eng
		if _, _, err := MapDuplicateCostAware(nw, opts); err == nil {
			t.Errorf("MapDuplicateCostAware with engine %s: want error, got nil", eng)
		}
	}

	// RepackLUTs is engine-independent post-processing: it must leave
	// every engine's circuit valid and never larger.
	for _, eng := range []Engine{EngineTree, EngineMIS, EngineCut} {
		opts := DefaultOptions(4)
		opts.Engine = eng
		plain, err := Map(nw, opts)
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		opts.RepackLUTs = true
		packed, err := Map(nw, opts)
		if err != nil {
			t.Fatalf("engine %s repack: %v", eng, err)
		}
		if packed.LUTs > plain.LUTs {
			t.Errorf("engine %s: repack grew the circuit %d -> %d", eng, plain.LUTs, packed.LUTs)
		}
		if err := Verify(nw, packed.Circuit, 64, 1); err != nil {
			t.Errorf("engine %s: repacked circuit not equivalent: %v", eng, err)
		}
	}
}
