package verify

import (
	"strings"
	"testing"

	"chortle/internal/bench"
	"chortle/internal/core"
	"chortle/internal/lut"
	"chortle/internal/network"
	"chortle/internal/truth"
)

// andNetwork builds y = a AND b as a network.
func andNetwork() *network.Network {
	nw := network.New("and")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	g := nw.AddGate("g", network.OpAnd, network.Fanin{Node: a}, network.Fanin{Node: b})
	nw.MarkOutput("y", g, false)
	return nw
}

// andCircuit builds the matching (or, with brokenTable, mismatching)
// LUT circuit.
func andCircuit(brokenTable bool) *lut.Circuit {
	c := lut.New("and", 2)
	c.AddInput("a")
	c.AddInput("b")
	t := truth.Var(0, 2).And(truth.Var(1, 2))
	if brokenTable {
		t = truth.Var(0, 2).Or(truth.Var(1, 2))
	}
	c.AddLUT("g", []string{"a", "b"}, t)
	c.MarkOutput("y", "g", false)
	return c
}

func TestNetworkVsCircuitMatch(t *testing.T) {
	if err := NetworkVsCircuit(andNetwork(), andCircuit(false), 8, 1); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkVsCircuitMismatchDetected(t *testing.T) {
	err := NetworkVsCircuit(andNetwork(), andCircuit(true), 8, 1)
	if err == nil {
		t.Fatal("OR circuit accepted as AND implementation")
	}
	if !strings.Contains(err.Error(), "y") {
		t.Fatalf("error should name the failing output: %v", err)
	}
}

func TestMissingOutputDetected(t *testing.T) {
	c := andCircuit(false)
	c.Outputs[0].Name = "z" // different output name
	if err := NetworkVsCircuit(andNetwork(), c, 8, 1); err == nil {
		t.Fatal("missing output accepted")
	}
}

// wideDesign returns equivalent network/circuit pairs with the given
// number of inputs, to exercise both the exhaustive and random paths.
func wideDesign(nIn int, broken bool) (*network.Network, *lut.Circuit) {
	nw := network.New("wide")
	var fins []network.Fanin
	names := make([]string, nIn)
	for i := 0; i < nIn; i++ {
		names[i] = "x" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		fins = append(fins, network.Fanin{Node: nw.AddInput(names[i])})
	}
	g := nw.AddGate("g", network.OpOr, fins...)
	nw.MarkOutput("y", g, false)

	// Circuit: tree of OR LUTs (K=4).
	c := lut.New("wide", 4)
	for _, n := range names {
		c.AddInput(n)
	}
	level := names
	li := 0
	or := func(n int) truth.Table {
		t := truth.Const(n, false)
		for i := 0; i < n; i++ {
			t = t.Or(truth.Var(i, n))
		}
		return t
	}
	for len(level) > 1 {
		var next []string
		for i := 0; i < len(level); i += 4 {
			end := i + 4
			if end > len(level) {
				end = len(level)
			}
			group := level[i:end]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			li++
			name := "l" + string(rune('0'+li/10)) + string(rune('0'+li%10))
			c.AddLUT(name, group, or(len(group)))
			next = append(next, name)
		}
		level = next
	}
	// A broken variant inverts the root: an OR tree disagrees on rare
	// all-zero events only if broken mid-tree, so the fault is planted
	// where every pattern sees it.
	c.MarkOutput("y", level[0], broken)
	return nw, c
}

func TestExhaustivePathMultiWord(t *testing.T) {
	// 8 inputs: 256 minterms = 4 blocks of 64.
	nw, c := wideDesign(8, false)
	if err := NetworkVsCircuit(nw, c, 0, 1); err != nil {
		t.Fatal(err)
	}
	nw, c = wideDesign(8, true)
	if err := NetworkVsCircuit(nw, c, 0, 1); err == nil {
		t.Fatal("broken 8-input circuit accepted")
	}
}

func TestRandomPathBeyondExhaustiveLimit(t *testing.T) {
	nw, c := wideDesign(20, false)
	if err := NetworkVsCircuit(nw, c, 16, 7); err != nil {
		t.Fatal(err)
	}
	nw, c = wideDesign(20, true)
	if err := NetworkVsCircuit(nw, c, 16, 7); err == nil {
		t.Fatal("broken 20-input circuit accepted")
	}
}

func TestNetworkVsNetwork(t *testing.T) {
	a := andNetwork()
	b := andNetwork()
	if err := NetworkVsNetwork(a, b, 8, 1); err != nil {
		t.Fatal(err)
	}
	// Complement one output.
	b.Outputs[0].Invert = true
	if err := NetworkVsNetwork(a, b, 8, 1); err == nil {
		t.Fatal("inverted output accepted")
	}
}

func TestExhaustiveBoundary(t *testing.T) {
	// Exactly at the limit (uses the exhaustive path with 2^16 points).
	nw, c := wideDesign(ExhaustiveLimit, false)
	if err := NetworkVsCircuit(nw, c, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultPatternCount(t *testing.T) {
	// patterns < 1 falls back to a sane default rather than zero work.
	nw, c := wideDesign(20, true)
	if err := NetworkVsCircuit(nw, c, 0, 3); err == nil {
		t.Fatal("zero-pattern verification validated a broken circuit")
	}
}

// TestUndefinedSignalRejected: a circuit whose LUT reads a signal it
// never defines fails verification with the circuit's Validate error,
// even where reading that signal as 0 would match the network.
func TestUndefinedSignalRejected(t *testing.T) {
	c := lut.New("and", 2)
	c.AddInput("a")
	c.AddInput("b")
	// y = (a AND b) OR ghost matches the network when ghost reads as 0.
	c.AddLUT("g", []string{"a", "b"}, truth.Var(0, 2).And(truth.Var(1, 2)))
	c.AddLUT("h", []string{"g", "ghost"}, truth.Var(0, 2).Or(truth.Var(1, 2)))
	c.MarkOutput("y", "h", false)
	verr := c.Validate()
	if verr == nil {
		t.Fatal("Validate accepted an undefined signal")
	}
	err := NetworkVsCircuit(andNetwork(), c, 8, 1)
	if err == nil {
		t.Fatal("circuit reading an undefined signal verified")
	}
	if want := "verify: simulating second design: " + verr.Error(); err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// TestBlockLoopAllocationFree pins where Verify allocates: compiling
// the two designs and binding their names, never the 64-pattern block
// loop, so 64 blocks of des at K=5 cost no more objects than 8.
func TestBlockLoopAllocationFree(t *testing.T) {
	bc, err := bench.ByName("des")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := bench.Optimized(bc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(nw, core.DefaultOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(blocks int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := NetworkVsCircuit(nw, res.Circuit, blocks, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(8), allocs(64)
	if many > few {
		t.Fatalf("Verify allocates %.0f objects over 64 blocks, %.0f over 8: the block loop allocates", many, few)
	}
	t.Logf("des K=5: %.0f allocations per Verify", many)
}
