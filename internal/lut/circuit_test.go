package lut

import (
	"strings"
	"testing"

	"chortle/internal/truth"
)

func sampleCircuit() *Circuit {
	c := New("sample", 3)
	c.AddInput("a")
	c.AddInput("b")
	c.AddInput("c")
	c.AddInput("d")
	and := truth.Var(0, 2).And(truth.Var(1, 2))
	c.AddLUT("l1", []string{"a", "b"}, and)
	maj := truth.FromFunc(3, func(m uint) bool {
		ones := 0
		for i := uint(0); i < 3; i++ {
			if m>>i&1 == 1 {
				ones++
			}
		}
		return ones >= 2
	})
	c.AddLUT("l2", []string{"l1", "c", "d"}, maj)
	c.MarkOutput("y", "l2", false)
	c.MarkOutput("z", "l1", true)
	return c
}

func TestValidateAndCount(t *testing.T) {
	c := sampleCircuit()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 2 {
		t.Fatalf("Count = %d", c.Count())
	}
}

func TestValidateRejects(t *testing.T) {
	c := New("bad", 2)
	c.AddInput("a")
	c.AddLUT("l", []string{"a", "ghost"}, truth.Var(0, 2))
	c.MarkOutput("y", "l", false)
	if err := c.Validate(); err == nil {
		t.Fatal("undefined signal accepted")
	}

	cyc := New("cyc", 2)
	cyc.AddInput("a")
	l1 := cyc.AddLUT("l1", []string{"a", "a"}, truth.Var(0, 2))
	l2 := cyc.AddLUT("l2", []string{"l1", "a"}, truth.Var(0, 2))
	l1.Inputs[1] = "l2"
	_ = l2
	cyc.MarkOutput("y", "l2", false)
	if err := cyc.Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestAddLUTPanicsOnTooManyInputs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := New("p", 2)
	c.AddInput("a")
	c.AddInput("b")
	c.AddInput("x")
	c.AddLUT("l", []string{"a", "b", "x"}, truth.Const(3, true))
}

// TestSimulateRejectsUndefinedSignal: a LUT input or output naming no
// signal is the Validate error, not a constant 0.
func TestSimulateRejectsUndefinedSignal(t *testing.T) {
	lutGhost := New("ghost", 2)
	lutGhost.AddInput("a")
	lutGhost.AddLUT("g", []string{"a", "ghost"}, truth.Var(0, 2).And(truth.Var(1, 2)))
	lutGhost.MarkOutput("y", "g", false)
	outGhost := New("ghost", 2)
	outGhost.AddInput("a")
	outGhost.MarkOutput("y", "ghost", false)
	for _, c := range []*Circuit{lutGhost, outGhost} {
		verr := c.Validate()
		if verr == nil {
			t.Fatal("Validate accepted an undefined signal")
		}
		_, err := c.Simulate(map[string]uint64{"a": ^uint64(0)})
		if err == nil || err.Error() != verr.Error() {
			t.Fatalf("Simulate error %v, want the Validate error %v", err, verr)
		}
	}
}

func TestSimulate(t *testing.T) {
	c := sampleCircuit()
	// Exhaustive over 4 inputs (16 patterns).
	assign := map[string]uint64{}
	for i, in := range []string{"a", "b", "c", "d"} {
		var w uint64
		for m := uint(0); m < 16; m++ {
			if m>>uint(i)&1 == 1 {
				w |= 1 << m
			}
		}
		assign[in] = w
	}
	got, err := c.Simulate(assign)
	if err != nil {
		t.Fatal(err)
	}
	for m := uint(0); m < 16; m++ {
		a, b := m&1 == 1, m>>1&1 == 1
		cc, d := m>>2&1 == 1, m>>3&1 == 1
		l1 := a && b
		ones := 0
		for _, v := range []bool{l1, cc, d} {
			if v {
				ones++
			}
		}
		wantY := ones >= 2
		wantZ := !l1
		if got["y"]>>m&1 == 1 != wantY {
			t.Fatalf("y wrong at %04b", m)
		}
		if got["z"]>>m&1 == 1 != wantZ {
			t.Fatalf("z wrong at %04b", m)
		}
	}
}

func TestStats(t *testing.T) {
	c := sampleCircuit()
	s, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.LUTs != 2 || s.Depth != 2 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.Utilization[2] != 1 || s.Utilization[3] != 1 {
		t.Fatalf("Utilization = %v", s.Utilization)
	}
}

func TestWriteBLIF(t *testing.T) {
	c := sampleCircuit()
	var sb strings.Builder
	if err := c.WriteBLIF(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{".model sample", ".inputs a b c d", ".outputs y z", ".names"} {
		if !strings.Contains(text, want) {
			t.Fatalf("BLIF missing %q:\n%s", want, text)
		}
	}
	// The inverted output z must get an inverter table.
	if !strings.Contains(text, "0 1") {
		t.Fatalf("missing inverter row for inverted output:\n%s", text)
	}
}

func TestWriteBLIFConstantLUT(t *testing.T) {
	c := New("k", 2)
	c.AddInput("a")
	c.AddLUT("one", nil, truth.Const(0, true))
	c.AddLUT("zero2", []string{"a", "one"}, truth.Const(2, false))
	c.MarkOutput("y", "zero2", false)
	var sb strings.Builder
	if err := c.WriteBLIF(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, ".names one\n1\n") {
		t.Fatalf("constant-1 LUT emitted wrong:\n%s", text)
	}
}

func TestFind(t *testing.T) {
	c := sampleCircuit()
	if c.Find("l1") == nil || c.Find("nope") != nil {
		t.Fatal("Find broken")
	}
}

func TestCircuitString(t *testing.T) {
	c := sampleCircuit()
	s := c.String()
	for _, want := range []string{"circuit sample", "l1 = LUT(a,b)", "output z = !l1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String missing %q:\n%s", want, s)
		}
	}
}

func TestLatchValidation(t *testing.T) {
	c := New("seq", 2)
	c.AddInput("q")
	c.AddInput("en")
	c.AddLUT("d", []string{"q", "en"}, truth.Var(0, 2).And(truth.Var(1, 2)))
	c.AddLatch("q", "d", false, '0')
	c.MarkOutput("y", "d", false)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := New("bad", 2)
	bad.AddInput("a")
	bad.AddLUT("d", []string{"a", "a"}, truth.Var(0, 2))
	bad.AddLatch("q", "d", false, '0') // q is not an input
	bad.MarkOutput("y", "d", false)
	if err := bad.Validate(); err == nil {
		t.Fatal("latch with non-input Q accepted")
	}
	bad2 := New("bad2", 2)
	bad2.AddInput("q")
	bad2.AddLatch("q", "ghost", false, '0')
	bad2.MarkOutput("y", "q", false)
	if err := bad2.Validate(); err == nil {
		t.Fatal("latch with undefined D accepted")
	}
}

func TestSequentialBLIFEmission(t *testing.T) {
	c := New("seq", 2)
	c.AddInput("q")
	c.AddInput("en")
	c.AddLUT("d", []string{"q", "en"}, truth.Var(0, 2).Xor(truth.Var(1, 2)))
	c.AddLatch("q", "d", true, '1')
	c.MarkOutput("y", "q", false)
	var sb strings.Builder
	if err := c.WriteBLIF(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, ".latch") || !strings.Contains(text, " q 1") {
		t.Fatalf("latch line missing:\n%s", text)
	}
	if strings.Contains(text, ".inputs q") && !strings.Contains(text, ".inputs q$") {
		t.Fatalf("latch Q leaked into .inputs:\n%s", text)
	}
	// The inverted D gets an inverter table before the .latch line.
	if !strings.Contains(text, "0 1") {
		t.Fatalf("inverter for inverted D missing:\n%s", text)
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K=0")
		}
	}()
	New("bad", 0)
}
