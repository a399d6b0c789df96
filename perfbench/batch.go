package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"chortle"
)

// batch-verified: the whole verified job, in process, one job at a
// time in a closed loop over the 96-job grid. The mapping runs in a
// child process (this binary with -batch-worker) so that peak_rss_mb
// and setup_s belong to the process that maps and not to the input
// generator.

// batchManifest is what the parent hands the worker: the grid in pass
// order, each job naming its circuit's BLIF file in the work dir.
type batchManifest struct {
	Seed int64      `json:"seed"`
	Jobs []batchJob `json:"jobs"`
}

type batchJob struct {
	job
	File string `json:"file"`
}

// batchResult is the worker's report, one JSON line on its stdout.
// PassNS is each pass's wall time (the sum of its jobs', calibration
// left out), PassFactor its speed factor (calib.go), and NormMS every
// plain job's wall time scaled by its pass's factor.
type batchResult struct {
	PassNS     []int64        `json:"pass_ns"`
	PassFactor []float64      `json:"pass_factor"`
	NormMS     []float64      `json:"norm_ms"`
	Outcomes   []outcome      `json:"outcomes"`
	AllocBytes int64          `json:"alloc_bytes"`
	TracedNS   []int64        `json:"traced_ns,omitempty"`
	Totals     *layerTotals   `json:"totals,omitempty"`
	Spans      []chortle.Span `json:"spans,omitempty"`
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// calibEvery is how much batch work runs between two calibrations.
const calibEvery = time.Second

func runBatch(cfg config) (*runReport, error) {
	names, texts, err := suiteTexts()
	if err != nil {
		return nil, err
	}
	golden, err := readGolden(cfg.root, names)
	if err != nil {
		return nil, err
	}
	man := batchManifest{Seed: cfg.seed}
	for _, j := range batchGrid(names, texts) {
		man.Jobs = append(man.Jobs, batchJob{job: j, File: j.Circuit + ".blif"})
	}
	for i, name := range names {
		if err := os.WriteFile(filepath.Join(cfg.work, name+".blif"), texts[i], 0o644); err != nil {
			return nil, err
		}
	}
	mb, err := json.Marshal(man)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.work, "manifest.json"), mb, 0o644); err != nil {
		return nil, err
	}

	var setups []float64
	var w *child
	for i := 0; i < setupRuns; i++ {
		var sp speedometer
		f := sp.measure(calibBurst)
		w, err = startChild(cfg.self, []string{"-batch-worker", "-work", cfg.work})
		if err != nil {
			return nil, err
		}
		line, err := w.readLine(60 * time.Second)
		if err != nil || line != "ready" {
			w.kill()
			return nil, fmt.Errorf("batch worker setup: %q %v%s", line, err, w.stderrTail())
		}
		setups = append(setups, time.Since(w.started).Seconds()*f)
		if i < setupRuns-1 {
			if err := w.finish("exit\n"); err != nil {
				return nil, err
			}
		}
	}
	line, err := w.request(fmt.Sprintf("run %d %d\n", cfg.seconds, cfg.traceFlag()), 170*time.Second)
	if err != nil {
		w.kill()
		return nil, fmt.Errorf("batch worker run: %v%s", err, w.stderrTail())
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var res batchResult
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return nil, fmt.Errorf("batch worker result: %v", err)
	}

	rep := newRunReport()
	rep.spans = res.Spans
	distinct := map[string]bool{}
	for _, o := range res.Outcomes {
		rep.Attempted++
		bad := checkBatchOutcome(o, golden)
		if bad != "" {
			rep.fail(bad)
			continue
		}
		if !distinct[o.Key] {
			distinct[o.Key] = true
			rep.LUTs += o.LUTs
			rep.Depth += o.Depth
			if g := golden[o.Key]; o.Depth != g.Depth {
				rep.note(fmt.Sprintf("%s depth %d, golden %d (LUTs equal)", o.Key, o.Depth, g.Depth))
			}
		}
	}
	if len(distinct) != len(man.Jobs) && rep.Failed == 0 {
		rep.fail(fmt.Sprintf("only %d of %d grid jobs reported", len(distinct), len(man.Jobs)))
	}
	jobs := float64(len(res.Outcomes))
	var passes []float64
	for i, ns := range res.PassNS {
		passes = append(passes, float64(ns)/1e9*res.PassFactor[i])
	}
	rep.scale = median(res.PassFactor)
	fmt.Fprintf(cfg.log, "passes: %v ns raw, speed factors %v\n", res.PassNS, res.PassFactor)
	rep.set("setup_s", median(setups))
	rep.set("pass_s", median(passes))
	// The grid is 96 unlike jobs, so one job's noise can move a plain
	// median a lot; the mean of the jobs within five points of it
	// (about ten) does not.
	rep.set("latency_ms_p50", smoothQuantile(res.NormMS, 0.50, 0.05))
	rep.set("latency_ms_p99", tailQuantile(res.NormMS, 0.99))
	rep.set("max_rps_at_slo", float64(len(man.Jobs))/median(passes))
	rep.set("alloc_mb_per_job", float64(res.AllocBytes)/jobs/(1<<20))
	rep.set("peak_rss_mb", w.peakRSSMB())
	if t := res.Totals; t != nil {
		var traced []float64
		for _, ns := range res.TracedNS {
			traced = append(traced, float64(ns)/1e6)
		}
		rep.setLayers(t)
		rep.set("trace.coverage", float64(t.CoveredNS)/float64(t.WallNS))
		var lat []float64
		for _, o := range res.Outcomes {
			lat = append(lat, float64(o.LatencyNS)/1e6)
		}
		rep.set("trace.overhead_ratio", quantile(traced, 0.5)/quantile(lat, 0.5))
	}
	return rep, nil
}

// checkBatchOutcome returns why a batch job is wrong, or "". Every job
// must map, pass Verify and use exactly the golden LUT count.
func checkBatchOutcome(o outcome, golden map[string]goldenEntry) string {
	g, ok := golden[o.Key]
	switch {
	case o.Err != "":
		return o.Key + ": " + o.Err
	case !o.Verified:
		return o.Key + ": not verified"
	case !ok:
		return o.Key + ": no golden row"
	case o.LUTs != g.LUTs:
		return fmt.Sprintf("%s: %d LUTs, golden %d", o.Key, o.LUTs, g.LUTs)
	}
	return ""
}

// goldenEntry is one testdata/golden row.
type goldenEntry struct {
	LUTs  int `json:"luts"`
	Depth int `json:"depth"`
}

// goldenKey names a job's testdata/golden row: k<K>/map for the tree
// engine, k<K>/cut for the cut engine.
func goldenKey(k int, eng string) string {
	if eng == "tree" {
		return fmt.Sprintf("k%d/map", k)
	}
	return fmt.Sprintf("k%d/cut", k)
}

// readGolden loads testdata/golden rows for the batch grid, keyed like
// job.key().
func readGolden(root string, names []string) (map[string]goldenEntry, error) {
	out := map[string]goldenEntry{}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(root, "testdata", "golden", name+".json"))
		if err != nil {
			return nil, err
		}
		var gf struct {
			Results map[string]goldenEntry `json:"results"`
		}
		if err := json.Unmarshal(b, &gf); err != nil {
			return nil, fmt.Errorf("golden %s: %w", name, err)
		}
		for k := 2; k <= 5; k++ {
			for _, eng := range []string{"tree", "cut"} {
				if g, ok := gf.Results[goldenKey(k, eng)]; ok {
					out[job{Circuit: name, K: k, Engine: eng}.key()] = g
				}
			}
		}
	}
	return out, nil
}

var allocBytesSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() int64 {
	metrics.Read(allocBytesSample)
	return int64(allocBytesSample[0].Value.Uint64())
}

// batchWorker is the child process: it loads the work dir (its set-up),
// warms up on one small job per engine, reports "ready", then waits for
// "exit" or "run <seconds> <trace>" on stdin.
func batchWorker(work string, stdin io.Reader, stdout io.Writer) error {
	mb, err := os.ReadFile(filepath.Join(work, "manifest.json"))
	if err != nil {
		return err
	}
	var man batchManifest
	if err := json.Unmarshal(mb, &man); err != nil {
		return err
	}
	texts := map[string][]byte{}
	for i := range man.Jobs {
		j := &man.Jobs[i]
		if texts[j.File] == nil {
			if texts[j.File], err = os.ReadFile(filepath.Join(work, j.File)); err != nil {
				return err
			}
		}
		j.Text = texts[j.File]
	}
	warm := &jobRunner{}
	for _, j := range man.Jobs {
		if j.Circuit == "count" && j.K == 4 {
			if o := warm.run(j.job, true, 1); o.Err != "" {
				return fmt.Errorf("warm-up %s: %s", o.Key, o.Err)
			}
		}
	}
	fmt.Fprintln(stdout, "ready")

	cmd, err := bufio.NewReader(stdin).ReadString('\n')
	if err != nil && cmd == "" {
		return nil // parent closed stdin: a set-up-only launch
	}
	f := strings.Fields(cmd)
	if len(f) == 0 || f[0] == "exit" {
		return nil
	}
	if len(f) != 3 || f[0] != "run" {
		return fmt.Errorf("bad command %q", cmd)
	}
	seconds, err := strconv.Atoi(f[1])
	if err != nil {
		return err
	}
	traced := f[2] == "1"

	var res batchResult
	plain := &jobRunner{}
	var tr *jobRunner
	if traced {
		tr = &jobRunner{totals: newLayerTotals()}
	}
	budget := time.Duration(seconds) * time.Second
	began := time.Now()
	for {
		// The pass's speed factor comes from calibrations at its ends and
		// between jobs, about every calibEvery of work.
		passStart := time.Now()
		var sp speedometer
		sp.measure(calibBurst)
		lastCalib := time.Now()
		var passNS int64
		var passMS []float64
		for i, j := range man.Jobs {
			if time.Since(lastCalib) >= calibEvery {
				sp.measure(1)
				lastCalib = time.Now()
			}
			vseed := man.Seed*7919 + int64(i)
			a := allocBytes()
			o := plain.run(j.job, true, vseed)
			res.AllocBytes += allocBytes() - a
			o.out = nil
			res.Outcomes = append(res.Outcomes, o)
			passNS += o.LatencyNS
			passMS = append(passMS, float64(o.LatencyNS)/1e6)
			if tr != nil {
				to := tr.run(j.job, true, vseed)
				res.TracedNS = append(res.TracedNS, to.LatencyNS)
				if to.Err != "" {
					to.out = nil
					res.Outcomes = append(res.Outcomes, to)
				}
			}
		}
		sp.measure(calibBurst)
		f := sp.factor()
		res.PassNS = append(res.PassNS, passNS)
		res.PassFactor = append(res.PassFactor, f)
		for _, ms := range passMS {
			res.NormMS = append(res.NormMS, ms*f)
		}
		if pass := time.Since(passStart); time.Since(began)+pass > budget {
			break
		}
	}
	if tr != nil {
		res.Totals, res.Spans = tr.totals, tr.spans
	}
	return json.NewEncoder(stdout).Encode(res)
}
