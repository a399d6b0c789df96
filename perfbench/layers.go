package main

import (
	"bytes"
	"context"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"chortle"
)

// The in-process job path shared by batch-verified and by the serve
// workloads' check: BLIF text -> chortle.ReadBLIF -> chortle.MapCtx ->
// chortle.Verify (when asked) -> Circuit.WriteBLIF. With tracing on,
// every public call is bracketed by a span of a per-job
// chortle.ReqTrace, the engine phases arrive as engine:<phase> spans
// through Options.Observer, and allocations are read around each call.

// verifyBlocks is the random-simulation effort of every Verify call:
// 64 blocks of 64 patterns above 16 primary inputs (exhaustive below).
const verifyBlocks = 64

// exhaustiveInputs is internal/verify's exhaustive-simulation limit.
const exhaustiveInputs = 16

// outcome is one finished job.
type outcome struct {
	Key       string `json:"key"`
	LUTs      int    `json:"luts"`
	Depth     int    `json:"depth"`
	Err       string `json:"err,omitempty"`
	Verified  bool   `json:"verified"`
	LatencyNS int64  `json:"latency_ns"`
	out       []byte // mapped BLIF
}

// layerTotals accumulates per-layer cost over traced jobs. Times are
// nanoseconds, allocations heap objects; the map/phase/work fields are
// split by engine.
type layerTotals struct {
	Jobs        int64            `json:"jobs"`
	ReadNS      int64            `json:"read_ns"`
	ReadAllocs  int64            `json:"read_allocs"`
	WriteNS     int64            `json:"write_ns"`
	WriteAllocs int64            `json:"write_allocs"`
	OutBytes    int64            `json:"out_bytes"`
	EngineJobs  map[string]int64 `json:"engine_jobs"`
	MapNS       map[string]int64 `json:"map_ns"`
	MapAllocs   map[string]int64 `json:"map_allocs"`
	PhaseNS     map[string]int64 `json:"phase_ns"` // "tree.solve" -> ns
	WorkUnits   int64            `json:"work_units"`
	TreeSolves  int64            `json:"tree_solves"`
	MemoHits    int64            `json:"memo_hits"`
	Verifies    int64            `json:"verifies"`
	VerifyNS    int64            `json:"verify_ns"`
	Exhaustive  int64            `json:"exhaustive"`
	CoveredNS   int64            `json:"covered_ns"` // layer spans
	WallNS      int64            `json:"wall_ns"`    // whole jobs
}

func newLayerTotals() *layerTotals {
	return &layerTotals{
		EngineJobs: map[string]int64{}, MapNS: map[string]int64{},
		MapAllocs: map[string]int64{}, PhaseNS: map[string]int64{},
	}
}

// jobRunner runs jobs in process. cache is nil for batch-verified (no
// shared cache) and mirrors chortled's shape cache for the serve check.
type jobRunner struct {
	process string // span process name; empty means "perfbench"
	cache   *chortle.SharedCache
	totals  *layerTotals   // nil: untraced
	spans   []chortle.Span // traced jobs' spans, kept until the run ends
}

// engineCounter forwards phase brackets to the job's trace and counts
// the tree engine's metered work and memo hits.
type engineCounter struct {
	phases                  chortle.Observer
	units, solves, memoHits atomic.Int64
}

func (c *engineCounter) Observe(e chortle.Event) {
	switch e.Kind {
	case chortle.EventPhaseStart, chortle.EventPhaseEnd:
		c.phases.Observe(e)
	case chortle.EventTreeSolve:
		c.units.Add(e.Units)
		c.solves.Add(1)
	case chortle.EventMemoHit:
		c.memoHits.Add(1)
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// allocObjects is the process's cumulative heap allocation count.
func allocObjects() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// run maps one job; verify adds a Verify call with the given pattern
// seed. Failures are reported in the outcome, never panicked.
func (r *jobRunner) run(j job, verify bool, verifySeed int64) outcome {
	o := outcome{Key: j.key()}
	eng, err := chortle.ParseEngine(j.Engine)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	var rt *chortle.ReqTrace
	var counter *engineCounter
	if r.totals != nil {
		process := r.process
		if process == "" {
			process = "perfbench"
		}
		rt = chortle.NewReqTrace(process, "job "+o.Key, chortle.TraceID{}, chortle.SpanID{}, 16, 64)
		counter = &engineCounter{phases: rt.Observer()}
	}
	var allocs int64
	call := func(name string, f func()) (time.Duration, int64) {
		sp := rt.Start(name)
		if rt != nil {
			allocs = allocObjects()
		}
		t0 := time.Now()
		f()
		d := time.Since(t0)
		var n int64
		if rt != nil {
			n = allocObjects() - allocs
		}
		sp.End()
		return d, n
	}

	start := time.Now()
	var nw *chortle.Network
	readNS, readAllocs := call("blif.read", func() { nw, err = chortle.ReadBLIF(bytes.NewReader(j.Text)) })
	if err != nil {
		o.Err = "reading input: " + err.Error()
		return o
	}
	opts := chortle.DefaultOptions(j.K)
	opts.Engine = eng
	opts.SharedCache = r.cache
	if counter != nil {
		opts.Observer = counter
	}
	var res *chortle.Result
	mapSpan := rt.Start("map")
	t0 := time.Now()
	if rt != nil {
		allocs = allocObjects()
	}
	res, err = chortle.MapCtx(context.Background(), nw, opts)
	mapNS := time.Since(t0)
	var mapAllocs int64
	if rt != nil {
		mapAllocs = allocObjects() - allocs
	}
	mapSpan.End()
	if err != nil {
		o.Err = "mapping: " + err.Error()
		return o
	}
	var verifyNS time.Duration
	if verify {
		verifyNS, _ = call("verify", func() { err = chortle.Verify(nw, res.Circuit, verifyBlocks, verifySeed) })
		if err != nil {
			o.Err = "verify: " + err.Error()
			return o
		}
		o.Verified = true
	}
	var out bytes.Buffer
	writeNS, writeAllocs := call("blif.write", func() { err = res.Circuit.WriteBLIF(&out) })
	if err != nil {
		o.Err = "writing output: " + err.Error()
		return o
	}
	wall := time.Since(start)
	o.LatencyNS = wall.Nanoseconds()
	stats, err := res.Circuit.Stats()
	if err != nil {
		o.Err = "circuit stats: " + err.Error()
		return o
	}
	o.LUTs, o.Depth, o.out = res.LUTs, stats.Depth, out.Bytes()

	if t := r.totals; t != nil {
		spans := rt.Finish(mapSpan.ID())
		r.spans = append(r.spans, spans...)
		t.Jobs++
		t.ReadNS += readNS.Nanoseconds()
		t.ReadAllocs += readAllocs
		t.WriteNS += writeNS.Nanoseconds()
		t.WriteAllocs += writeAllocs
		t.OutBytes += int64(out.Len())
		t.EngineJobs[j.Engine]++
		t.MapNS[j.Engine] += mapNS.Nanoseconds()
		t.MapAllocs[j.Engine] += mapAllocs
		for _, sp := range spans {
			if len(sp.Name) > 7 && sp.Name[:7] == "engine:" {
				t.PhaseNS[j.Engine+"."+sp.Name[7:]] += sp.Duration().Nanoseconds()
			}
		}
		t.WorkUnits += counter.units.Load()
		t.TreeSolves += counter.solves.Load()
		t.MemoHits += counter.memoHits.Load()
		if verify {
			t.Verifies++
			t.VerifyNS += verifyNS.Nanoseconds()
			if len(nw.Inputs) <= exhaustiveInputs {
				t.Exhaustive++
			}
		}
		t.CoveredNS += (readNS + mapNS + verifyNS + writeNS).Nanoseconds()
		t.WallNS += wall.Nanoseconds()
	}
	return o
}
