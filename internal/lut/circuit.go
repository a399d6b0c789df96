// Package lut represents circuits of K-input lookup tables — the output
// of technology mapping. Each LUT carries its truth table, so a mapped
// circuit is fully specified and can be simulated, validated and
// exported to BLIF. Per the paper's cost model, area is simply the
// number of LUTs; output inverters are free (absorbed by the consuming
// block or IO), so circuit outputs carry a polarity flag.
package lut

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"chortle/internal/truth"
)

// LUT is one K-input lookup table instance. Inputs name primary inputs
// or other LUTs; Table is the programmed function over those inputs in
// order (variable i of the table = Inputs[i]).
type LUT struct {
	Name   string
	Inputs []string
	Table  truth.Table
}

// Output designates a circuit output signal, optionally inverted.
type Output struct {
	Name   string
	Signal string
	Invert bool
}

// Latch is a sequential element riding through the combinational
// mapping: Q is a circuit input, D the (possibly inverted) signal that
// feeds it at the next clock.
type Latch struct {
	Q    string
	D    string
	DInv bool
	Init byte
}

// Circuit is a network of K-input LUTs.
type Circuit struct {
	Name    string
	K       int
	Inputs  []string
	LUTs    []*LUT
	Outputs []Output
	Latches []Latch

	byName map[string]*LUT
	// prov holds per-LUT provenance records when the mapper ran with
	// provenance recording on (see provenance.go). Nil otherwise.
	prov map[string]*Provenance
}

// New returns an empty LUT circuit for K-input lookup tables.
func New(name string, k int) *Circuit {
	if k < 1 || k > truth.MaxVars {
		panic(fmt.Sprintf("lut: K=%d out of range [1,%d]", k, truth.MaxVars))
	}
	return &Circuit{Name: name, K: k, byName: make(map[string]*LUT)}
}

// AddInput declares a primary input signal.
func (c *Circuit) AddInput(name string) {
	c.Inputs = append(c.Inputs, name)
}

// AddLUT appends a lookup table; the name must be unique and the input
// count must not exceed K.
func (c *Circuit) AddLUT(name string, inputs []string, table truth.Table) *LUT {
	if len(inputs) > c.K {
		panic(fmt.Sprintf("lut: %q has %d inputs, K=%d", name, len(inputs), c.K))
	}
	if table.N != len(inputs) {
		panic(fmt.Sprintf("lut: %q table arity %d != %d inputs", name, table.N, len(inputs)))
	}
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("lut: duplicate LUT name %q", name))
	}
	l := &LUT{Name: name, Inputs: append([]string(nil), inputs...), Table: table}
	c.LUTs = append(c.LUTs, l)
	c.byName[name] = l
	return l
}

// MarkOutput designates signal (a PI or LUT name), optionally inverted,
// as the circuit output called name.
func (c *Circuit) MarkOutput(name, signal string, invert bool) {
	c.Outputs = append(c.Outputs, Output{Name: name, Signal: signal, Invert: invert})
}

// AddLatch registers a latch: q must be a circuit input, d a signal.
func (c *Circuit) AddLatch(q, d string, dInv bool, init byte) {
	c.Latches = append(c.Latches, Latch{Q: q, D: d, DInv: dInv, Init: init})
}

// Find returns the LUT with the given name, or nil.
func (c *Circuit) Find(name string) *LUT { return c.byName[name] }

// Count returns the number of LUTs, the paper's area metric.
func (c *Circuit) Count() int { return len(c.LUTs) }

// isInput reports whether name is a primary input signal.
func (c *Circuit) isInput(name string) bool {
	for _, in := range c.Inputs {
		if in == name {
			return true
		}
	}
	return false
}

// Validate checks the circuit structure: unique names, defined input
// signals, fanin bounds, table arities and acyclicity.
func (c *Circuit) Validate() error {
	_, err := c.validate()
	return err
}

// validate runs Validate's checks and returns the LUTs in topological
// order.
func (c *Circuit) validate() ([]*LUT, error) {
	seen := make(map[string]bool, len(c.Inputs)+len(c.LUTs))
	for _, in := range c.Inputs {
		if seen[in] {
			return nil, fmt.Errorf("lut circuit %q: duplicate input %q", c.Name, in)
		}
		seen[in] = true
	}
	for _, l := range c.LUTs {
		if seen[l.Name] {
			return nil, fmt.Errorf("lut circuit %q: duplicate name %q", c.Name, l.Name)
		}
		seen[l.Name] = true
		if len(l.Inputs) > c.K {
			return nil, fmt.Errorf("lut circuit %q: %q exceeds K=%d inputs", c.Name, l.Name, c.K)
		}
		if l.Table.N != len(l.Inputs) {
			return nil, fmt.Errorf("lut circuit %q: %q table arity mismatch", c.Name, l.Name)
		}
	}
	for _, l := range c.LUTs {
		for _, in := range l.Inputs {
			if !seen[in] {
				return nil, fmt.Errorf("lut circuit %q: %q uses undefined signal %q", c.Name, l.Name, in)
			}
		}
	}
	for _, o := range c.Outputs {
		if !seen[o.Signal] {
			return nil, fmt.Errorf("lut circuit %q: output %q references undefined %q", c.Name, o.Name, o.Signal)
		}
	}
	for _, l := range c.Latches {
		if !c.isInput(l.Q) {
			return nil, fmt.Errorf("lut circuit %q: latch output %q is not a circuit input", c.Name, l.Q)
		}
		if !seen[l.D] {
			return nil, fmt.Errorf("lut circuit %q: latch %q data references undefined %q", c.Name, l.Q, l.D)
		}
	}
	return c.topoOrder()
}

// topoOrder returns LUTs with fanins first, or an error on a cycle.
func (c *Circuit) topoOrder() ([]*LUT, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]uint8, len(c.LUTs))
	var order []*LUT
	var visit func(l *LUT) error
	visit = func(l *LUT) error {
		switch state[l.Name] {
		case gray:
			return fmt.Errorf("lut circuit %q: cycle through %q", c.Name, l.Name)
		case black:
			return nil
		}
		state[l.Name] = gray
		for _, in := range l.Inputs {
			if dep := c.byName[in]; dep != nil {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[l.Name] = black
		order = append(order, l)
		return nil
	}
	for _, l := range c.LUTs {
		if err := visit(l); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Stats summarizes a mapped circuit.
type Stats struct {
	LUTs        int
	Depth       int         // LUT levels on the longest path
	Utilization map[int]int // histogram: used-input count -> LUTs
}

// Stats computes area/depth/utilization statistics.
func (c *Circuit) Stats() (Stats, error) {
	order, err := c.topoOrder()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{LUTs: len(c.LUTs), Utilization: make(map[int]int)}
	depth := make(map[string]int, len(order))
	for _, l := range order {
		d := 0
		for _, in := range l.Inputs {
			if dd := depth[in]; dd > d {
				d = dd
			}
		}
		depth[l.Name] = d + 1
		if depth[l.Name] > s.Depth {
			s.Depth = depth[l.Name]
		}
		s.Utilization[len(l.Inputs)]++
	}
	return s, nil
}

// Levels returns every LUT's level — 1 + the maximum level of its LUT
// fanins, with primary inputs at level 0 — in topological order
// alongside the LUTs themselves. The observability layer uses it to
// histogram a mapped circuit by depth.
func (c *Circuit) Levels() (map[string]int, error) {
	order, err := c.topoOrder()
	if err != nil {
		return nil, err
	}
	levels := make(map[string]int, len(order))
	for _, l := range order {
		d := 0
		for _, in := range l.Inputs {
			if dd := levels[in]; dd > d {
				d = dd
			}
		}
		levels[l.Name] = d + 1
	}
	return levels, nil
}

// WriteBLIF emits the circuit as a BLIF model whose .names tables are
// the LUT truth tables (minterm form). Inverted outputs get an explicit
// inverter table.
func (c *Circuit) WriteBLIF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	latchQ := make(map[string]bool, len(c.Latches))
	for _, l := range c.Latches {
		latchQ[l.Q] = true
	}
	fmt.Fprintf(bw, ".model %s\n.inputs", c.Name)
	for _, in := range c.Inputs {
		if latchQ[in] {
			continue // driven by a .latch line, not a primary input
		}
		fmt.Fprintf(bw, " %s", in)
	}
	fmt.Fprint(bw, "\n.outputs")
	outs := append([]Output(nil), c.Outputs...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Name < outs[j].Name })
	for _, o := range outs {
		fmt.Fprintf(bw, " %s", o.Name)
	}
	fmt.Fprintln(bw)
	order, err := c.topoOrder()
	if err != nil {
		return err
	}
	reserved := make(map[string]bool)
	for _, in := range c.Inputs {
		reserved[in] = true
	}
	for _, o := range outs {
		reserved[o.Name] = true
	}
	emit := make(map[string]string, len(order))
	for _, in := range c.Inputs {
		emit[in] = in
	}
	for _, l := range order {
		name := l.Name
		for reserved[name] {
			name += "$int"
		}
		reserved[name] = true
		emit[l.Name] = name
	}
	for _, l := range order {
		fmt.Fprint(bw, ".names")
		for _, in := range l.Inputs {
			fmt.Fprintf(bw, " %s", emit[in])
		}
		fmt.Fprintf(bw, " %s\n", emit[l.Name])
		if ok, v := l.Table.IsConst(); ok {
			// Constant LUT: an empty cover is constant 0; constant 1 is
			// a single all-dashes row over the declared inputs.
			if v {
				if len(l.Inputs) == 0 {
					fmt.Fprintln(bw, "1")
				} else {
					fmt.Fprintf(bw, "%s 1\n", strings.Repeat("-", len(l.Inputs)))
				}
			}
			continue
		}
		for _, row := range l.Table.Minterms() {
			fmt.Fprintf(bw, "%s 1\n", row)
		}
	}
	for _, o := range outs {
		if emit[o.Signal] == o.Name && !o.Invert {
			continue
		}
		fmt.Fprintf(bw, ".names %s %s\n", emit[o.Signal], o.Name)
		if o.Invert {
			fmt.Fprintln(bw, "0 1")
		} else {
			fmt.Fprintln(bw, "1 1")
		}
	}
	for _, l := range c.Latches {
		dname := emit[l.D]
		if l.DInv {
			inv := l.Q + "$D"
			for reserved[inv] {
				inv += "$"
			}
			reserved[inv] = true
			fmt.Fprintf(bw, ".names %s %s\n0 1\n", dname, inv)
			dname = inv
		}
		fmt.Fprintf(bw, ".latch %s %s %c\n", dname, l.Q, l.Init)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// String renders a compact description for debugging.
func (c *Circuit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit %s: K=%d, %d LUTs\n", c.Name, c.K, len(c.LUTs))
	for _, l := range c.LUTs {
		fmt.Fprintf(&sb, "  %s = LUT(%s) %v\n", l.Name, strings.Join(l.Inputs, ","), l.Table)
	}
	for _, o := range c.Outputs {
		inv := ""
		if o.Invert {
			inv = "!"
		}
		fmt.Fprintf(&sb, "  output %s = %s%s\n", o.Name, inv, o.Signal)
	}
	return sb.String()
}
