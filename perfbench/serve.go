package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"chortle"
)

// serve-repeat: chortled as a subprocess with its default flags (plus
// -addr, and -access-log in the traced run), driven by an open loop
// from this process over at most `conns` connections.

// conns is the load generator's connection count: the machine's two
// cores, so the client never queues more work on the server than it
// can run.
const conns = 2

// serveProfile fixes the offered load. The rates and the latency limit
// were calibrated once on the commit that added the benchmark (see
// README.md) and must not be retuned by a change that claims a gain.
type serveProfile struct {
	refRate  float64       // req/s of the reference phase (latency metrics)
	ladder   []float64     // higher rates probed in turn while they hold
	below    []float64     // lower rates probed, highest first, if refRate misses
	p99Limit time.Duration // latency limit on p99, timed from each request's due time
}

var repeatLoad = serveProfile{
	refRate:  50,
	ladder:   []float64{100, 400, 1600},
	below:    []float64{25, 10},
	p99Limit: 250 * time.Millisecond,
}

// sent is one request and its response.
type sent struct {
	j               job
	due, start, end time.Time
	late            time.Duration // timer lateness when the sender was idle; -1 if it was busy
	code            int
	body            []byte
	err             error
	trace           chortle.TraceID
	clientSpans     []chortle.Span
}

func (s *sent) latency() time.Duration { return s.end.Sub(s.due) }
func (s *sent) ok() bool               { return s.err == nil && s.code == http.StatusOK }

// server is one running chortled.
type server struct {
	c      *child
	base   string
	client *http.Client
}

// chortledArgs are the flags chortled runs with: its defaults, except
// the address, and the access log in a traced run.
func chortledArgs(accessLog string) []string {
	args := []string{"-addr", "127.0.0.1:0"}
	if accessLog != "" {
		args = append(args, "-access-log", accessLog)
	}
	return args
}

func startServer(cfg config, accessLog string) (*server, error) {
	c, err := startChild(cfg.chortled, chortledArgs(accessLog))
	if err != nil {
		return nil, err
	}
	line, err := c.readLine(30 * time.Second)
	addr, ok := strings.CutPrefix(line, "listening on ")
	if err != nil || !ok {
		c.kill()
		return nil, fmt.Errorf("chortled did not start: %q %v%s", line, err, c.stderrTail())
	}
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &server{c: c, base: "http://" + addr, client: &http.Client{Transport: tr, Timeout: time.Minute}}, nil
}

// stop drains chortled with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	return s.c.signal(syscall.SIGTERM)
}

// post sends one mapping request. A traced request carries a
// traceparent, so its client span shares the server's trace ID.
func (s *server) post(r *sent, traced bool) {
	url := fmt.Sprintf("%s/map?k=%d&engine=%s", s.base, r.j.K, r.j.Engine)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(r.j.Text))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "text/plain")
	var rt *chortle.ReqTrace
	if traced {
		rt = chortle.NewReqTrace("perfbench", "POST /map "+r.j.key(), chortle.TraceID{}, chortle.SpanID{}, 4, 0)
		r.trace = rt.TraceID()
		req.Header.Set(chortle.TraceparentHeader, chortle.FormatTraceparent(rt.TraceID(), rt.RootSpanID()))
	}
	r.start = time.Now()
	resp, err := s.client.Do(req)
	if err == nil {
		r.code = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.end = time.Now()
	r.err = err
	r.clientSpans = rt.Finish(chortle.SpanID{})
}

// openLoop offers jobs at rate req/s (rate 0: back to back) over
// senders connections. Each request is due at its slot in the schedule
// whether or not earlier ones finished; a request that finds every
// connection busy waits, and that wait counts in its latency. With
// giveUp > 0 the loop stops sending once a request is due longer ago
// than that and reports itself given up: the backlog has outgrown any
// latency limit, and what it would still send is only more to check.
// It returns the requests sent, in order.
func (s *server) openLoop(jobs []job, rate float64, senders int, traced bool, giveUp time.Duration) ([]*sent, bool) {
	out := make([]*sent, len(jobs))
	var next atomic.Int64
	var gaveUp atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || gaveUp.Load() {
					return
				}
				r := &sent{j: jobs[i], due: time.Now(), late: -1}
				if rate > 0 {
					r.due = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if wait := time.Until(r.due); wait > 0 {
						time.Sleep(wait)
						r.late = time.Since(r.due)
					} else if giveUp > 0 && -wait > giveUp {
						gaveUp.Store(true)
						return
					}
				}
				s.post(r, traced)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	var rs []*sent
	for _, r := range out {
		if r != nil {
			rs = append(rs, r)
		}
	}
	return rs, gaveUp.Load()
}

// cacheStats reads the shared cache counters from /stats.
func (s *server) cacheStats() (chortle.CacheStats, error) {
	var st struct {
		Cache chortle.CacheStats `json:"cache"`
	}
	resp, err := s.client.Get(s.base + "/stats")
	if err != nil {
		return st.Cache, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st.Cache, err
}

// runAllocBytes reads chortle_run_alloc_bytes_total, the heap bytes
// chortled allocated inside mapping runs, from /metrics.
func (s *server) runAllocBytes() (float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "chortle_run_alloc_bytes_total "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("chortle_run_alloc_bytes_total missing from /metrics")
}

// phase summarises one open-loop phase. Its latencies are scaled to the
// reference machine (calib.go); its rate and wall time are as offered.
type phase struct {
	rate          float64
	n, good       int
	p50, p90, p99 float64 // ms from due time
	svcP50        float64 // ms from send to response
	lateP99       float64 // ms the generator woke late, over requests it was idle for
	drained       bool    // everything finished within the limit after the last due time
	wall          float64 // s, the windows' wall times, unscaled
}

// window is one open-loop run.
type window struct {
	rs     []*sent
	wall   time.Duration
	scale  float64 // the speed factor its times are scaled by
	gaveUp bool    // the backlog outgrew the limit; the rest went unsent
}

// timed offers jobs at rate req/s, its times to be scaled by f, the
// factor of the calibration burst just before it. A ladder step
// (giveUp) stops sending once a request is due longer ago than the
// latency limit, scaled.
func (s *serveRun) timed(srv *server, jobs []job, rate, f float64, traced, giveUp bool) window {
	var limit time.Duration
	if giveUp {
		limit = time.Duration(float64(s.prof.p99Limit) / f)
	}
	t0 := time.Now()
	rs, gaveUp := srv.openLoop(jobs, rate, conns, traced, limit)
	return window{rs: rs, wall: time.Since(t0), scale: f, gaveUp: gaveUp}
}

// rescale sets w's factor to the mean of the bursts before and after it.
func (w *window) rescale(after float64) { w.scale = (w.scale + after) / 2 }

func summarise(rate float64, limit time.Duration, ws ...window) phase {
	p := phase{rate: rate, drained: true}
	var lat, late, svc []float64
	for _, w := range ws {
		var lastDue, lastEnd time.Time
		for _, r := range w.rs {
			p.n++
			if r.ok() {
				p.good++
			}
			lat = append(lat, float64(r.latency())/1e6*w.scale)
			if r.late >= 0 {
				late = append(late, float64(r.late)/1e6*w.scale)
			}
			svc = append(svc, float64(r.end.Sub(r.start))/1e6*w.scale)
			if r.due.After(lastDue) {
				lastDue = r.due
			}
			if r.end.After(lastEnd) {
				lastEnd = r.end
			}
		}
		p.drained = p.drained && !w.gaveUp && float64(lastEnd.Sub(lastDue))*w.scale <= float64(limit)
		p.wall += w.wall.Seconds() // set by the schedule: not scaled
	}
	p.p50, p.p90, p.p99, p.lateP99 = quantile(lat, 0.5), quantile(lat, 0.9), tailQuantile(lat, 0.99), tailQuantile(late, 0.99)
	p.svcP50 = quantile(svc, 0.5)
	return p
}

// ladderStep is a ladder step's length. A step above capacity builds a
// backlog at least (1 - capacity/rate) × ladderStep long, so the step
// must be several times the latency limit to fail clearly.
const ladderStep = 3 * time.Second

// windows is how many parts the reference phase runs in; in the
// untraced run each part is served by its own chortled (measure).
const windows = 16

// reference runs the reference phase against srv, window by window,
// with a calibration burst between windows and at both ends. It also
// returns the median of the windows' factors.
func (s *serveRun) reference(srv *server, traced bool) ([]*sent, phase, float64) {
	var sp speedometer
	f := sp.measure(calibBurst)
	var ws []window
	var all []*sent
	var scales []float64
	for w := 0; w < windows; w++ {
		win := s.timed(srv, s.refWindow(w), s.prof.refRate, f, traced, false)
		f = sp.measure(calibBurst)
		win.rescale(f)
		ws = append(ws, win)
		all = append(all, win.rs...)
		scales = append(scales, win.scale)
	}
	s.logWindows(ws)
	return all, summarise(s.prof.refRate, s.prof.p99Limit, ws...), median(scales)
}

// refWindow is the reference phase's w-th part.
func (s *serveRun) refWindow(w int) []job {
	return s.ref[w*len(s.ref)/windows : (w+1)*len(s.ref)/windows]
}

// logWindows reports each reference window's speed factor, and its p50
// and p99 scaled by it, on the log.
func (s *serveRun) logWindows(ws []window) {
	var parts []string
	for _, w := range ws {
		p := summarise(s.prof.refRate, s.prof.p99Limit, w)
		parts = append(parts, fmt.Sprintf("%.3f/%.1f/%.0f", w.scale, p.p50, p.p99))
	}
	fmt.Fprintf(s.cfg.log, "reference windows (speed factor/p50 ms/p99 ms): %s\n", strings.Join(parts, " "))
}

// holds reports whether a phase meets the latency limit with nothing
// failed and no backlog left behind.
func (p phase) holds(limit time.Duration) bool {
	return p.good == p.n && p.p99 <= float64(limit)/1e6 && p.drained
}

// serveRun is one run of serve-repeat.
type serveRun struct {
	cfg       config
	prof      serveProfile
	gen       *requestGen
	warm, ref []job
	probe     []job // the allocation probe: one mix block, sent one at a time
	ck        *checker
	rep       *runReport
	all       []*sent // every request sent, in order, for the check
}

func runServe(cfg config) (*runReport, error) {
	s := &serveRun{cfg: cfg, prof: repeatLoad}
	genStart := time.Now()
	names, texts, err := suiteTexts()
	if err != nil {
		return nil, err
	}
	s.gen = newRequestGen(cfg.seed, names, texts)
	s.warm = serveWarmup(names, texts)
	s.probe = allocProbe(cfg.seed, names, texts)
	// The reference phase takes the run's whole measuring time: 1500
	// requests at S=30, so p99 has 15 beyond it.
	s.ref = s.gen.next(int(s.prof.refRate * float64(cfg.seconds)))
	fmt.Fprintf(cfg.log, "generated inputs in %.1f s\n", time.Since(genStart).Seconds())
	s.ck = newChecker(cfg.seed, cfg.trace)
	s.rep = newRunReport()
	if cfg.trace {
		return s.traced()
	}
	return s.measure()
}

// setup launches chortled and runs the warm-up set back to back; it
// returns the server ready for measurement and the set-up time.
func (s *serveRun) setup(accessLog string) (*server, float64, error) {
	srv, err := startServer(s.cfg, accessLog)
	if err != nil {
		return nil, 0, err
	}
	warm, _ := srv.openLoop(s.warm, 0, conns, false, 0)
	s.all = append(s.all, warm...)
	return srv, time.Since(srv.c.started).Seconds(), nil
}

// measure is the untraced run: set-up, reference phase, ladder, check.
func (s *serveRun) measure() (*runReport, error) {
	prof, rep := s.prof, s.rep
	// Every set-up is a fresh chortled that then serves one window of the
	// reference phase, so the phase's latencies pool over as many
	// processes: one that runs slow for its own reasons (its placement on
	// the cores, its heap, its map seeds) moves a fifth of the samples,
	// not all of them. The last stays up for the allocation probe and
	// the ladder.
	var setups []float64
	var ws []window
	var srv *server
	defer func() {
		if srv != nil {
			srv.c.kill()
		}
	}()
	for i := 0; i < windows; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		var sp speedometer
		f := sp.measure(calibBurst)
		if i > 0 {
			ws[i-1].rescale(f) // the burst after the previous window
		}
		var d float64
		var err error
		if srv, d, err = s.setup(""); err != nil {
			return nil, err
		}
		setups = append(setups, d*f)
		ws = append(ws, s.timed(srv, s.refWindow(i), prof.refRate, f, false, false))
		s.all = append(s.all, ws[i].rs...)
	}
	var sp speedometer
	f := sp.measure(calibBurst)
	ws[windows-1].rescale(f)
	refPhase := summarise(prof.refRate, prof.p99Limit, ws...)
	s.logWindows(ws)
	s.cfg.logPhase("reference", refPhase, prof.p99Limit)

	// chortled counts heap bytes allocated inside mapping runs, but
	// overlapping runs share one window; one connection keeps the
	// probe's runs apart, so the count per request is exact.
	alloc0, err := srv.runAllocBytes()
	if err != nil {
		return nil, err
	}
	probe, _ := srv.openLoop(s.probe, 0, 1, false, 0)
	s.all = append(s.all, probe...)
	alloc1, err := srv.runAllocBytes()
	if err != nil {
		return nil, err
	}

	// The ladder: climb from the reference rate while each step holds;
	// if the reference rate itself misses, step down until one holds.
	maxRPS := 0.0
	ladderSet := map[*sent]bool{}
	steps := prof.ladder
	if refPhase.holds(prof.p99Limit) {
		maxRPS = prof.refRate
	} else {
		steps = prof.below
	}
	for _, rate := range steps {
		win := s.timed(srv, s.gen.next(int(rate*ladderStep.Seconds())), rate, f, false, true)
		f = sp.measure(calibBurst)
		win.rescale(f)
		s.all = append(s.all, win.rs...)
		for _, r := range win.rs {
			ladderSet[r] = true
		}
		step := summarise(rate, prof.p99Limit, win)
		s.cfg.logPhase("ladder", step, prof.p99Limit)
		held := step.holds(prof.p99Limit)
		if held && rate > maxRPS {
			maxRPS = rate
		}
		if held != (rate > prof.refRate) {
			break // climbing: the first miss ends it; descending: the first hold does
		}
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	checkStart := time.Now()
	s.ck.tally(rep, s.all, ladderSet)
	fmt.Fprintf(s.cfg.log, "checked %d responses in %.1f s\n", len(s.all), time.Since(checkStart).Seconds())
	rep.LUTs, rep.Depth = s.ck.quality(s.warm) // every distinct job, once

	rep.set("setup_s", median(setups))
	rep.set("pass_s", refPhase.wall)
	rep.set("latency_ms_p50", refPhase.p50)
	rep.set("latency_ms_p99", refPhase.p99)
	rep.set("max_rps_at_slo", maxRPS)
	rep.set("alloc_mb_per_job", (alloc1-alloc0)/float64(len(s.probe))/(1<<20))
	rep.set("peak_rss_mb", srv.c.peakRSSMB())
	return rep, nil
}

// traced is the per-layer run: the reference phase once against an
// untraced chortled and once against one writing an access log with
// traceparent on every request, then the in-process replay of the
// traced phase's requests through the public functions.
func (s *serveRun) traced() (*runReport, error) {
	prof, rep := s.prof, s.rep
	srv, _, err := s.setup("")
	if err != nil {
		return nil, err
	}
	plain, p, _ := s.reference(srv, false)
	s.all = append(s.all, plain...)
	if err := srv.stop(); err != nil {
		return nil, err
	}

	tracedFrom := len(s.all) // the traced server's warm-up starts here
	logPath := filepath.Join(s.cfg.work, "access.jsonl")
	if srv, _, err = s.setup(logPath); err != nil {
		return nil, err
	}
	defer srv.c.kill()
	st0, err := srv.cacheStats()
	if err != nil {
		return nil, err
	}
	traced, q, f := s.reference(srv, true)
	s.all = append(s.all, traced...)
	rep.scale = f
	st1, err := srv.cacheStats()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	recs, err := readAccessLog(logPath)
	if err != nil {
		return nil, err
	}

	// Replay the traced server's requests first, in the order it served
	// them, so the replay's shape cache holds what chortled's held, and
	// instrument exactly the traced phase's requests.
	s.ck.instrument = map[*sent]bool{}
	for _, r := range traced {
		s.ck.instrument[r] = true
	}
	order := append(append([]*sent{}, s.all[tracedFrom:]...), s.all[:tracedFrom]...)
	s.ck.tally(rep, order, nil)
	rep.setLayers(s.ck.runner.totals)
	rep.spans = append(rep.spans, s.ck.runner.spans...)

	s.cfg.logPhase("reference, untraced", p, prof.p99Limit)
	s.cfg.logPhase("reference, traced", q, prof.p99Limit)
	rep.set("trace.overhead_ratio", q.p50/p.p50)
	rep.set("loadgen.late_ms_p99", q.lateP99)
	hits, misses := st1.Hits-st0.Hits, st1.Misses-st0.Misses
	rep.set("cache.lookups", float64(hits+misses))
	rep.set("cache.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	rep.set("cache.entries", float64(st1.Entries))
	rep.set("cache.bytes", float64(st1.Bytes))
	rep.set("cache.evictions", float64(st1.Evictions))
	serverLayers(rep, traced, recs)
	return rep, nil
}

// readAccessLog parses chortled's -access-log, keyed by trace ID.
func readAccessLog(path string) (map[chortle.TraceID]chortle.AccessRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[chortle.TraceID]chortle.AccessRecord{}
	dec := json.NewDecoder(f)
	for {
		var rec chortle.AccessRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		out[rec.Trace] = rec
	}
}

// serverLayers derives chortled's layer split from the access log of
// the traced phase: the mean of each request span, the request time no
// span covers, refusals, and the client's HTTP overhead (client wall
// time minus the server's total).
func serverLayers(rep *runReport, traced []*sent, recs map[chortle.TraceID]chortle.AccessRecord) {
	var n, refused float64
	sum := map[string]float64{}
	var covered, wall float64
	for _, r := range traced {
		rec, ok := recs[r.trace]
		if !ok {
			rep.fail("traced request " + r.trace.String() + " missing from the access log")
			continue
		}
		switch rec.Code {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			refused++
		}
		if rec.Code != http.StatusOK {
			continue
		}
		n++
		var root, children float64
		for _, sp := range rec.Spans {
			d := float64(sp.Duration()) / 1e6
			switch sp.Name {
			case "request":
				root = d
			case "admission", "queue", "solve", "write":
				sum[sp.Name] += d
				children += d
			}
		}
		sum["unspanned"] += root - children
		clientMS := float64(r.end.Sub(r.start)) / 1e6
		sum["http"] += clientMS - float64(rec.TotalNS)/1e6
		covered += children
		wall += clientMS
		r.clientSpans = append(r.clientSpans, rec.Spans...)
		rep.spans = append(rep.spans, r.clientSpans...)
	}
	for _, name := range []string{"admission", "queue", "solve", "write", "unspanned"} {
		rep.set("chortled."+name+"_ms", ratio(sum[name], n))
	}
	rep.set("chortled.refused", refused)
	rep.set("http.overhead_ms", ratio(sum["http"], n))
	rep.set("trace.coverage", ratio(covered, wall))
}

// checker verifies served outputs against the in-process job path on
// the same input and options: the response must be a 200 whose BLIF
// re-parses and is byte-identical to a local MapCtx, with the same LUT
// count; a seeded sample is also run through Verify.
type checker struct {
	runner     *jobRunner
	seed       int64
	mu         sync.Mutex
	expected   map[string]*outcome
	parsed     map[string]bool // keys whose served BLIF re-parsed
	instrument map[*sent]bool  // traced run: replay these, instrumented
}

// verifyEvery is the Verify sample: one request in verifyEvery.
const verifyEvery = 64

func newChecker(seed int64, traced bool) *checker {
	ck := &checker{
		// The replay shares one shape cache, like chortled: outputs are
		// byte-identical with or without it, and the serve-repeat
		// replay then sees the hits the server sees.
		runner:   &jobRunner{process: "perfbench-replay", cache: chortle.NewSharedCache(chortle.SharedCacheConfig{})},
		seed:     seed,
		expected: map[string]*outcome{},
		parsed:   map[string]bool{},
	}
	if traced {
		ck.runner.totals = newLayerTotals()
	}
	return ck
}

// tally checks every response and counts each request as attempted
// and, if wrong, failed. A refusal or error on a ladder step (probe) is
// what the ladder probes for: there it only ends the climb. A wrong
// output counts everywhere.
func (ck *checker) tally(rep *runReport, all []*sent, probe map[*sent]bool) {
	for i, why := range ck.checkAll(all) {
		rep.Attempted++
		if why != "" && (!probe[all[i]] || all[i].ok()) {
			rep.fail(why)
		}
	}
}

// checkAll returns, per request, "" or the reason it is wrong. An
// instrumented replay runs on one goroutine, so its layer timings are
// uncontended; a plain check uses one per core.
func (ck *checker) checkAll(all []*sent) []string {
	workers := conns
	if ck.runner.totals != nil {
		workers = 1
	}
	why := make([]string, len(all))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(all) {
					return
				}
				sample := (int64(i)*2654435761+ck.seed)%verifyEvery == 0
				why[i] = ck.check(all[i], sample)
			}
		}()
	}
	wg.Wait()
	return why
}

type mapReply struct {
	LUTs int    `json:"luts"`
	BLIF string `json:"blif"`
}

func (ck *checker) check(r *sent, sample bool) string {
	key := r.j.key()
	ck.mu.Lock()
	exp := ck.expected[key]
	ck.mu.Unlock()
	if exp == nil || ck.instrument[r] || (sample && !exp.Verified) {
		runner := ck.runner
		if !ck.instrument[r] {
			runner = &jobRunner{cache: ck.runner.cache}
		}
		o := runner.run(r.j, sample, ck.seed)
		if o.Err != "" {
			return key + ": local mapping failed: " + o.Err
		}
		if exp == nil || o.Verified {
			exp = &o
			ck.mu.Lock()
			ck.expected[key] = exp
			ck.mu.Unlock()
		}
	}
	if r.err != nil {
		return key + ": " + r.err.Error()
	}
	if r.code != http.StatusOK {
		return fmt.Sprintf("%s: HTTP %d", key, r.code)
	}
	var reply mapReply
	if err := json.Unmarshal(r.body, &reply); err != nil {
		return key + ": bad response JSON: " + err.Error()
	}
	if reply.BLIF != string(exp.out) || reply.LUTs != exp.LUTs {
		return key + ": response differs from the in-process mapping"
	}
	// Byte-identical responses parse identically: re-parse once per key.
	ck.mu.Lock()
	parsed := ck.parsed[key]
	ck.mu.Unlock()
	if !parsed {
		if _, err := chortle.ReadBLIF(strings.NewReader(reply.BLIF)); err != nil {
			return key + ": response BLIF does not parse: " + err.Error()
		}
		ck.mu.Lock()
		ck.parsed[key] = true
		ck.mu.Unlock()
	}
	return ""
}

// quality sums LUTs and depth of the in-process mappings of jobs (the
// served outputs are byte-identical to them, or the run failed).
func (ck *checker) quality(jobs []job) (luts, depth int) {
	for _, j := range jobs {
		if o := ck.expected[j.key()]; o != nil {
			luts += o.LUTs
			depth += o.Depth
		}
	}
	return luts, depth
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
