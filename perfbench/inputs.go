package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"chortle"
	"chortle/internal/bench"
)

// Seeded workload inputs. Everything here runs before a timed phase, in
// the benchmark process: generator time and memory count neither in
// setup_s nor in peak_rss_mb, and the program under test only ever
// receives the serialized BLIF text.

// job is one mapping job: a BLIF text, a LUT size and an engine.
type job struct {
	Circuit string `json:"circuit"`
	K       int    `json:"k"`
	Engine  string `json:"engine"`
	Text    []byte `json:"-"`
}

func (j job) key() string { return fmt.Sprintf("%s/k%d/%s", j.Circuit, j.K, j.Engine) }

// suiteTexts serializes the paper's twelve optimized circuits, the
// networks testdata/golden is computed from.
func suiteTexts() ([]string, [][]byte, error) {
	var names []string
	var texts [][]byte
	for _, c := range bench.Suite() {
		nw, err := bench.Optimized(c)
		if err != nil {
			return nil, nil, fmt.Errorf("optimizing %s: %w", c.Name, err)
		}
		var buf bytes.Buffer
		if err := chortle.WriteBLIF(&buf, nw); err != nil {
			return nil, nil, fmt.Errorf("serializing %s: %w", c.Name, err)
		}
		names = append(names, c.Name)
		texts = append(texts, buf.Bytes())
	}
	return names, texts, nil
}

// batchGrid is batch-verified's pass: every suite circuit at K=2..5 on
// both engines, in suite order. The grid is fixed; the seed only picks
// Verify's random patterns.
func batchGrid(names []string, texts [][]byte) []job {
	var jobs []job
	for i, name := range names {
		for k := 2; k <= 5; k++ {
			for _, eng := range []string{"tree", "cut"} {
				jobs = append(jobs, job{Circuit: name, K: k, Engine: eng, Text: texts[i]})
			}
		}
	}
	return jobs
}

// mixSlot is one entry of the serve mix.
type mixSlot struct {
	k   int
	eng string
}

// serveSlots is the serve mix of one circuit: K=3..5, tree:cut = 3:1.
var serveSlots = func() []mixSlot {
	var s []mixSlot
	for k := 3; k <= 5; k++ {
		for _, eng := range []string{"tree", "tree", "tree", "cut"} {
			s = append(s, mixSlot{k, eng})
		}
	}
	return s
}()

// requestGen yields serve-repeat's request stream. Requests come in
// balanced blocks (every suite circuit × every mix slot once) shuffled
// per seed, so the mix is the same on every seed and only the order
// changes.
type requestGen struct {
	rng     *rand.Rand
	names   []string
	texts   [][]byte
	pending []job
}

func newRequestGen(seed int64, names []string, texts [][]byte) *requestGen {
	return &requestGen{rng: rand.New(rand.NewSource(seed)), names: names, texts: texts}
}

func (g *requestGen) refill() {
	var block []job
	for i, name := range g.names {
		for _, s := range serveSlots {
			block = append(block, job{Circuit: name, K: s.k, Engine: s.eng, Text: g.texts[i]})
		}
	}
	g.rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	g.pending = append(g.pending, block...)
}

// next returns the next n requests of the stream.
func (g *requestGen) next(n int) []job {
	for len(g.pending) < n {
		g.refill()
	}
	out := make([]job, n)
	copy(out, g.pending)
	g.pending = g.pending[n:]
	return out
}

// allocProbe is one balanced block of the serve mix, from a stream
// shuffled apart from the measured one.
func allocProbe(seed int64, names []string, texts [][]byte) []job {
	return newRequestGen(seed^0xa110c, names, texts).next(len(names) * len(serveSlots))
}

// serveWarmup is serve-repeat's warm-up set: every distinct (circuit,
// K, engine) once, so the shape cache holds every tree shape before
// timing starts.
func serveWarmup(names []string, texts [][]byte) []job {
	var jobs []job
	for i, name := range names {
		for k := 3; k <= 5; k++ {
			for _, eng := range []string{"tree", "cut"} {
				jobs = append(jobs, job{Circuit: name, K: k, Engine: eng, Text: texts[i]})
			}
		}
	}
	return jobs
}
