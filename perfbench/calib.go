package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Machine-speed calibration. The virtual machines this benchmark runs
// on change speed by half or more within minutes, as neighbours come
// and go, so raw wall times of the same code spread past any useful
// bound from one run to the next. The benchmark therefore times a fixed
// calibration workload alongside every measurement and reports each
// time as it would read on a machine of the reference speed: the
// measured time × refCalib / the calibration time measured around it.
// Offered rates are not scaled. The calibration is standard-library code only, so no change to the
// program under test can move it: a program that gets slower reads
// slower. It mixes the kinds of work the mapper does, in about equal
// time: integer maps, sorting, small allocations and hashing, and a
// bit-parallel simulation over string-keyed maps, the pattern that
// dominates Verify. The machine's slow spells slow these kinds of work
// by different amounts (a neighbour on the same physical core costs
// map lookups up to 2×, SHA-256 10%); on a probe of the batch mix over
// such spells the job's wall time moved 1.95× from its fastest to its
// slowest 15-second window, and its ratio to this calibration 1.17×.

// refCalib is the reference machine's calibration time. It is a unit,
// not a target: roughly what calibrate takes on a quiet 2-core VM.
const refCalib = 35 * time.Millisecond

// calibSink keeps the calibration's results live.
var calibSink int

// calibrate runs the calibration workload once and returns its wall
// time.
func calibrate() time.Duration {
	simOnce.Do(buildSim)
	t0 := time.Now()
	rng := rand.New(rand.NewSource(1))
	m := make(map[int]int)
	for i := 0; i < 40000; i++ {
		m[rng.Int()] = i
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	type node struct {
		next *node
		v    [6]int
	}
	var head *node
	for i := 0; i < 80000; i++ {
		head = &node{next: head}
		head.v[0] = keys[i%len(keys)]
	}
	for n := head; n != nil; n = n.next {
		calibSink += n.v[0] & 1
	}
	buf := make([]byte, 64<<10)
	for i := 0; i < 120; i++ {
		h := sha256.Sum256(buf)
		buf[i] = h[0]
	}
	simulate()
	return time.Since(t0)
}

// simNodes is the size of the calibration's simulated network.
const simNodes = 8000

// simLUT is one 4-input node of the calibration's network.
type simLUT struct {
	name string
	in   [4]string
}

var (
	simOnce  sync.Once
	simNames []string
	simLUTs  []simLUT
)

// buildSim makes the calibration's fixed random network, once per
// process and outside any timing.
func buildSim() {
	rng := rand.New(rand.NewSource(4))
	simNames = make([]string, simNodes)
	for i := range simNames {
		simNames[i] = "n" + strconv.Itoa(i)
	}
	for i := 64; i < simNodes; i++ {
		l := simLUT{name: simNames[i]}
		for j := range l.in {
			l.in[j] = simNames[rng.Intn(i)]
		}
		simLUTs = append(simLUTs, l)
	}
}

// simulate evaluates the network on one block of 64 patterns, keeping
// signal values in a string-keyed map and every node an XOR of its
// inputs, bit by bit.
func simulate() {
	val := make(map[string]uint64, simNodes)
	for i := 0; i < 64; i++ {
		val[simNames[i]] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	for _, l := range simLUTs {
		var w uint64
		for b := 0; b < 64; b++ {
			var m uint
			for i, in := range l.in {
				if val[in]>>uint(b)&1 == 1 {
					m |= 1 << uint(i)
				}
			}
			if 0x6996>>m&1 == 1 {
				w |= 1 << uint(b)
			}
		}
		val[l.name] = w
	}
	calibSink += int(val[simNames[simNodes-1]] & 1)
}

// calibBurst is how many calibrations a burst runs: before a set-up, and
// at each end of a batch pass.
const calibBurst = 3

// speedometer collects calibration times.
type speedometer struct{ ns []float64 }

// measure runs n calibrations and returns their median factor.
func (s *speedometer) measure(n int) float64 {
	var burst speedometer
	for i := 0; i < n; i++ {
		d := float64(calibrate())
		s.ns = append(s.ns, d)
		burst.ns = append(burst.ns, d)
	}
	return burst.factor()
}

// factor is refCalib over the median calibration time: a time measured
// alongside, multiplied by it, reads as on the reference machine. 1
// before any calibration.
func (s *speedometer) factor() float64 {
	if len(s.ns) == 0 {
		return 1
	}
	return float64(refCalib) / median(s.ns)
}
