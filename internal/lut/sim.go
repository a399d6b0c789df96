package lut

// Sim is a circuit compiled for repeated 64-way parallel simulation.
// The topological order, the LUT fanin lists and the input and output
// names are resolved once into flat index arrays, so Eval touches no
// map and no string. A Sim holds its own value buffer: it is not safe
// for concurrent use.
type Sim struct {
	inputs  []string // value slot i is inputs[i]
	outputs []string // output names, then latch pseudo-outputs

	// LUT l, in topological order, writes slot len(inputs)+l. Its
	// fanin slots are fanin[off[l]:off[l+1]], variable i first, and its
	// truth table is table[l].
	off   []int32
	fanin []int32
	table []uint64

	outSlot []int32
	outInv  []uint64 // all ones for an inverted output
	val     []uint64
}

// Compile fixes the circuit for simulation. It runs Validate's checks
// and returns the Validate error on a circuit that fails them, so a LUT
// or output reading an undefined signal is an error, not a constant 0.
func (c *Circuit) Compile() (*Sim, error) {
	order, err := c.validate()
	if err != nil {
		return nil, err
	}
	s := &Sim{inputs: append([]string(nil), c.Inputs...)}
	slot := make(map[string]int32, len(c.Inputs)+len(order))
	for i, in := range c.Inputs {
		slot[in] = int32(i)
	}
	edges := 0
	for i, l := range order {
		slot[l.Name] = int32(len(c.Inputs) + i)
		edges += len(l.Inputs)
	}
	s.off = make([]int32, 1, len(order)+1)
	s.fanin = make([]int32, 0, edges)
	s.table = make([]uint64, 0, len(order))
	for _, l := range order {
		for _, in := range l.Inputs {
			s.fanin = append(s.fanin, slot[in])
		}
		s.off = append(s.off, int32(len(s.fanin)))
		s.table = append(s.table, l.Table.Bits)
	}
	n := len(c.Outputs) + len(c.Latches)
	s.outputs = make([]string, 0, n)
	s.outSlot = make([]int32, 0, n)
	s.outInv = make([]uint64, 0, n)
	for _, o := range c.Outputs {
		s.outputs = append(s.outputs, o.Name)
		s.outSlot = append(s.outSlot, slot[o.Signal])
		s.outInv = append(s.outInv, invMask(o.Invert))
	}
	for _, l := range c.Latches {
		s.outputs = append(s.outputs, "$latch$"+l.Q)
		s.outSlot = append(s.outSlot, slot[l.D])
		s.outInv = append(s.outInv, invMask(l.DInv))
	}
	s.val = make([]uint64, len(c.Inputs)+len(order))
	return s, nil
}

func invMask(invert bool) uint64 {
	if invert {
		return ^uint64(0)
	}
	return 0
}

// Inputs returns the input names in the order Eval reads them.
func (s *Sim) Inputs() []string { return s.inputs }

// Outputs returns the output names in the order Eval writes them: the
// circuit outputs, then one "$latch$Q" pseudo-output per latch.
func (s *Sim) Outputs() []string { return s.outputs }

// Eval simulates 64 input patterns in parallel: bit b of in[i] is input
// i's value in pattern b. It writes output j's word to out[j].
//
// Each LUT is a mux tree over its truth table: the 2^n table bits are
// loaded as all-zero or all-ones words, then folded pairwise on
// variable n-1 down to 0 with lo&^x | hi&x, at most 63 word muxes for a
// 6-input LUT.
func (s *Sim) Eval(in, out []uint64) {
	val := s.val
	copy(val, in[:len(s.inputs)])
	next := len(s.inputs)
	var w [1 << 6]uint64
	for l, t := range s.table {
		fs := s.fanin[s.off[l]:s.off[l+1]]
		rows := 1 << len(fs)
		for m := 0; m < rows; m++ {
			w[m] = -(t >> m & 1)
		}
		for i := len(fs) - 1; i >= 0; i-- {
			x := val[fs[i]]
			half := 1 << i
			for m := 0; m < half; m++ {
				w[m] = w[m]&^x | w[m+half]&x
			}
		}
		val[next+l] = w[0]
	}
	for j, sl := range s.outSlot {
		out[j] = val[sl] ^ s.outInv[j]
	}
}

// Simulate evaluates the circuit on 64 parallel input patterns: bit b of
// the word assigned to an input is that input's value in pattern b. It
// returns one word per output, keyed by output name. Inputs absent from
// the assignment default to zero.
func (c *Circuit) Simulate(assign map[string]uint64) (map[string]uint64, error) {
	s, err := c.Compile()
	if err != nil {
		return nil, err
	}
	in := make([]uint64, len(s.inputs))
	for i, name := range s.inputs {
		in[i] = assign[name]
	}
	out := make([]uint64, len(s.outputs))
	s.Eval(in, out)
	res := make(map[string]uint64, len(out))
	for j, name := range s.outputs {
		res[name] = out[j]
	}
	return res, nil
}
