package network

import "fmt"

// Sim is a network compiled for repeated 64-way parallel simulation.
// The topological order, the fanin lists and the input and output names
// are resolved once into flat index arrays, so Eval touches no map and
// no string. A Sim holds its own value buffer: it is not safe for
// concurrent use.
type Sim struct {
	inputs  []string // OpInput node names; value slot i is inputs[i]
	outputs []string // output names, then latch pseudo-outputs

	// Gate g writes slot len(inputs)+g. Every gate is an AND of its
	// polarized fanins, complemented by gateInv[g]: OR is compiled by
	// De Morgan. Gate g's fanins are fanin[off[g]:off[g+1]], each
	// encoded as slot<<1 | invert.
	off     []int32
	fanin   []int32
	gateInv []uint64

	outSlot []int32 // encoded like fanin
	val     []uint64
}

// Compile fixes the network for simulation. It fails, with the error
// TopoSort or an invalid op would raise, on a network Simulate cannot
// evaluate.
func (nw *Network) Compile() (*Sim, error) {
	order, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	s := &Sim{}
	slot := make([]int32, len(nw.Nodes)) // node ID -> value slot
	edges := 0
	for _, n := range nw.Nodes {
		if n.Op == OpInput {
			slot[n.ID] = int32(len(s.inputs))
			s.inputs = append(s.inputs, n.Name)
		} else {
			edges += len(n.Fanins)
		}
	}
	gates := len(nw.Nodes) - len(s.inputs)
	s.off = make([]int32, 1, gates+1)
	s.fanin = make([]int32, 0, edges)
	s.gateInv = make([]uint64, 0, gates)
	next := int32(len(s.inputs))
	for _, n := range order {
		var inv uint64
		switch n.Op {
		case OpInput:
			continue
		case OpAnd:
		case OpOr:
			inv = ^uint64(0)
		default:
			return nil, fmt.Errorf("network %q: node %q has invalid op", nw.Name, n.Name)
		}
		for _, f := range n.Fanins {
			s.fanin = append(s.fanin, encode(slot[f.Node.ID], f.Invert != (inv != 0)))
		}
		s.off = append(s.off, int32(len(s.fanin)))
		s.gateInv = append(s.gateInv, inv)
		slot[n.ID] = next
		next++
	}
	s.outputs = make([]string, 0, len(nw.Outputs)+len(nw.Latches))
	s.outSlot = make([]int32, 0, len(nw.Outputs)+len(nw.Latches))
	for _, o := range nw.Outputs {
		s.outputs = append(s.outputs, o.Name)
		s.outSlot = append(s.outSlot, encode(slot[o.Node.ID], o.Invert))
	}
	for _, l := range nw.Latches {
		s.outputs = append(s.outputs, latchKey(l.Q))
		s.outSlot = append(s.outSlot, encode(slot[l.D.ID], l.DInv))
	}
	s.val = make([]uint64, next)
	return s, nil
}

func encode(slot int32, invert bool) int32 {
	if invert {
		return slot<<1 | 1
	}
	return slot << 1
}

// read returns the value of an encoded slot reference.
func read(val []uint64, ref int32) uint64 {
	return val[ref>>1] ^ -uint64(ref&1)
}

// Inputs returns the input names in the order Eval reads them.
func (s *Sim) Inputs() []string { return s.inputs }

// Outputs returns the output names in the order Eval writes them: the
// network outputs, then one pseudo-output per latch (see LatchKey).
func (s *Sim) Outputs() []string { return s.outputs }

// Eval simulates 64 input patterns in parallel: bit b of in[i] is input
// i's value in pattern b. It writes output j's word to out[j].
func (s *Sim) Eval(in, out []uint64) {
	val := s.val
	copy(val, in[:len(s.inputs)])
	next := len(s.inputs)
	for g, inv := range s.gateInv {
		w := ^uint64(0)
		for _, f := range s.fanin[s.off[g]:s.off[g+1]] {
			w &= read(val, f)
		}
		val[next+g] = w ^ inv
	}
	for j, ref := range s.outSlot {
		out[j] = read(val, ref)
	}
}

// Simulate evaluates the network on 64 input patterns in parallel: bit b
// of the word assigned to an input is that input's value in pattern b.
// It returns one word per output, keyed by output name. Inputs absent
// from the assignment default to zero.
func (nw *Network) Simulate(assign map[string]uint64) (map[string]uint64, error) {
	s, err := nw.Compile()
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
