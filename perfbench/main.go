// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks every output, and prints one
// JSON result line whose metrics are named in BENCHMARK.json:
//
//	perfbench -workload batch-verified|serve-repeat \
//	    -seed N -seconds S -trace 0|1
//
// run.sh builds it and chortled from the checkout and runs it from the
// checkout root; README.md explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"chortle"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root: testdata/golden and .bench_build live here
	work     string // this run's scratch directory, removed at exit
	self     string // this executable, re-run as the batch worker
	chortled string
	log      io.Writer // progress and diagnostics (stderr)
}

// logPhase reports one open-loop phase on the log.
func (c config) logPhase(name string, p phase, limit time.Duration) {
	fmt.Fprintf(c.log, "%s %.0f req/s: %d sent, %d ok, p50 %.1f ms, p90 %.1f ms, p99 %.1f ms, send-to-reply p50 %.1f ms, late p99 %.1f ms, drained %v, holds %v\n",
		name, p.rate, p.n, p.good, p.p50, p.p90, p.p99, p.svcP50, p.lateP99, p.drained, p.holds(limit))
}

func (c config) traceFlag() int {
	if c.trace {
		return 1
	}
	return 0
}

var workloads = map[string]func(config) (*runReport, error){
	"batch-verified": runBatch,
	"serve-repeat":   runServe,
}

// metricDef is one reported metric; the lists below are the contract
// with BENCHMARK.json (a test keeps them equal).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p99", "ms"},
	{"max_rps_at_slo", "req/s"},
	{"alloc_mb_per_job", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"luts_total", "count"},
	{"depth_total", "count"},
}

var perLayer = []metricDef{
	{"blif.read_ms", "ms"},
	{"blif.read_allocs", "count"},
	{"blif.write_ms", "ms"},
	{"blif.write_allocs", "count"},
	{"blif.out_mb", "MiB"},
	{"map.tree_ms", "ms"},
	{"map.tree_allocs", "count"},
	{"tree.prepare_ms", "ms"},
	{"tree.forest_ms", "ms"},
	{"tree.solve_ms", "ms"},
	{"tree.reconstruct_ms", "ms"},
	{"tree.finalize_ms", "ms"},
	{"tree.work_units", "count"},
	{"tree.memo_hit_ratio", "ratio"},
	{"map.cut_ms", "ms"},
	{"map.cut_allocs", "count"},
	{"cut.prepare_ms", "ms"},
	{"cut.cuts_ms", "ms"},
	{"cut.select_ms", "ms"},
	{"cut.emit_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.lookups", "count"},
	{"cache.entries", "count"},
	{"cache.bytes", "B"},
	{"cache.evictions", "count"},
	{"verify.ms", "ms"},
	{"verify.exhaustive_share", "ratio"},
	{"chortled.admission_ms", "ms"},
	{"chortled.queue_ms", "ms"},
	{"chortled.solve_ms", "ms"},
	{"chortled.write_ms", "ms"},
	{"chortled.unspanned_ms", "ms"},
	{"chortled.refused", "count"},
	{"http.overhead_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// runReport collects one run's counts, metrics, failures and spans.
// scale is the run's speed factor (calib.go): the per-layer times are
// measured raw and scaled by it when reported; the end-to-end times are
// set already scaled, each by the factor measured around it.
type runReport struct {
	Attempted, Failed int
	LUTs, Depth       int
	scale             float64
	values            map[string]float64
	failures, notes   []string
	spans             []chortle.Span
}

func newRunReport() *runReport { return &runReport{scale: 1, values: map[string]float64{}} }

func (r *runReport) set(name string, v float64) { r.values[name] = v }

func (r *runReport) fail(why string) {
	r.Failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, why)
	}
}

func (r *runReport) note(s string) { r.notes = append(r.notes, s) }

// setLayers reports the in-process layers: means per job (per job of
// the engine, for the engine layers).
func (r *runReport) setLayers(t *layerTotals) {
	jobs := float64(t.Jobs)
	r.set("blif.read_ms", ratio(float64(t.ReadNS)/1e6, jobs))
	r.set("blif.read_allocs", ratio(float64(t.ReadAllocs), jobs))
	r.set("blif.write_ms", ratio(float64(t.WriteNS)/1e6, jobs))
	r.set("blif.write_allocs", ratio(float64(t.WriteAllocs), jobs))
	r.set("blif.out_mb", ratio(float64(t.OutBytes)/(1<<20), jobs))
	phases := map[string][]string{
		"tree": {"prepare", "forest", "solve", "reconstruct", "finalize"},
		"cut":  {"prepare", "cuts", "select", "emit"},
	}
	for eng, names := range phases {
		n := float64(t.EngineJobs[eng])
		r.set("map."+eng+"_ms", ratio(float64(t.MapNS[eng])/1e6, n))
		r.set("map."+eng+"_allocs", ratio(float64(t.MapAllocs[eng]), n))
		for _, p := range names {
			r.set(eng+"."+p+"_ms", ratio(float64(t.PhaseNS[eng+"."+p])/1e6, n))
		}
	}
	r.set("tree.work_units", ratio(float64(t.WorkUnits), float64(t.EngineJobs["tree"])))
	r.set("tree.memo_hit_ratio", ratio(float64(t.MemoHits), float64(t.MemoHits+t.TreeSolves)))
	r.set("verify.ms", ratio(float64(t.VerifyNS)/1e6, float64(t.Verifies)))
	r.set("verify.exhaustive_share", ratio(float64(t.Exhaustive), float64(t.Verifies)))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the report. A per-layer metric whose layer the
// workload never runs (chortled on batch-verified, the shared cache
// without one) reads 0.
func (r *runReport) result(trace bool) result {
	r.set("luts_total", float64(r.LUTs))
	r.set("depth_total", float64(r.Depth))
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.values[d.name]
		if trace && d.unit == "ms" {
			v *= r.scale
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "batch-verified or serve-repeat")
	seed := fl.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fl.Int("seconds", 30, "how long the run measures")
	trace := fl.Int("trace", 0, "1: the per-layer traced run instead of the end-to-end one")
	chortled := fl.String("chortled", ".bench_build/chortled", "chortled binary built from this checkout")
	worker := fl.Bool("batch-worker", false, "internal: run as batch-verified's mapping process")
	work := fl.String("work", "", "internal: the batch worker's input directory")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *worker {
		if err := batchWorker(*work, stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench worker:", err)
			return 1
		}
		return 0
	}
	runFn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: root, self: self, chortled: *chortled, log: stderr}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg.work, err = os.MkdirTemp(build, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	info, _ := json.Marshal(map[string]any{"info": runInfo(cfg)})
	fmt.Fprintln(stdout, string(info))
	rep, err := runFn(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stderr, "note:", n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "FAILED:", f)
	}
	if cfg.trace {
		if err := writeTrace(cfg, rep.spans, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result(cfg.trace))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runInfo is what every result records beside its metrics.
func runInfo(cfg config) map[string]any {
	info := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     sourceHash(cfg.root),
	}
	if cfg.workload == "serve-repeat" {
		p := repeatLoad
		accessLog := ""
		if cfg.trace {
			accessLog = "<work>/access.jsonl"
		}
		info["chortled_flags"] = strings.Join(chortledArgs(accessLog), " ")
		info["connections"] = conns
		info["ref_rate"] = p.refRate
		info["ladder"] = p.ladder
		info["p99_limit_ms"] = p.p99Limit.Milliseconds()
	}
	return info
}

// sourceHash identifies the commit under test without VCS metadata,
// which a benchmark checkout need not carry: a SHA-256 over every
// go.mod and .go file.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeTrace writes the run's spans once, at the end: as JSONL (the
// cmd/traceview input format) and as one multi-process Chrome trace.
func writeTrace(cfg config, spans []chortle.Span, stderr io.Writer) error {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	jf, err := os.Create(base + ".jsonl")
	if err != nil {
		return err
	}
	sj := chortle.NewSpanJSONL(jf)
	for _, s := range spans {
		sj.RecordSpan(s)
	}
	if err := errors.Join(sj.Err(), jf.Close()); err != nil {
		return err
	}
	cf, err := os.Create(base + ".json")
	if err != nil {
		return err
	}
	if err := errors.Join(chortle.WriteChromeTraceMulti(cf, spans, nil), cf.Close()); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "trace: %d spans in %s.json (and .jsonl)\n", len(spans), base)
	return nil
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile estimates a high quantile q as the mean of the order
// statistics within half a percentage point of it, and of at least the
// three nearest it. With 1500 samples that averages 15 of them instead
// of reading one, and with batch-verified's 96 jobs the top three,
// which steadies p99 from run to run.
func tailQuantile(xs []float64, q float64) float64 { return smoothQuantile(xs, q, 0.005) }

// smoothQuantile is the mean of the order statistics of xs within half
// of q, and of at least the three nearest q.
func smoothQuantile(xs []float64, q, half float64) float64 {
	if len(xs) < 3 {
		return quantile(xs, q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s) - 1)
	lo, hi := int(math.Ceil((q-half)*n)), int(math.Floor((q+half)*n))
	if hi-lo+1 < 3 {
		mid := int(math.Round(q * n))
		lo, hi = mid-1, mid+1
	}
	if hi >= len(s) {
		lo, hi = lo-(hi-len(s)+1), len(s)-1
	}
	if lo < 0 {
		lo = 0
	}
	sum := 0.0
	for _, x := range s[lo : hi+1] {
		sum += x
	}
	return sum / float64(hi-lo+1)
}
