package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for perfbench as the batch
// worker, which the batch smoke test launches as a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-batch-worker" {
		os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func streamKeys(seed int64, n int) ([]string, [][]byte) {
	g := newRequestGen(seed, []string{"x", "y", "z"}, [][]byte{[]byte("x"), []byte("y"), []byte("z")})
	var keys []string
	var texts [][]byte
	for _, j := range g.next(n) {
		keys = append(keys, j.key())
		texts = append(texts, j.Text)
	}
	return keys, texts
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	k1, t1 := streamKeys(7, 120)
	k2, t2 := streamKeys(7, 120)
	k3, _ := streamKeys(8, 120)
	for i := range k1 {
		if k1[i] != k2[i] || !bytes.Equal(t1[i], t2[i]) {
			t.Fatalf("request %d differs between two streams of seed 7", i)
		}
		if !strings.HasPrefix(k1[i], string(t1[i])+"/") {
			t.Fatalf("request %d: key %s carries text %q", i, k1[i], t1[i])
		}
	}
	if strings.Join(k1, ",") == strings.Join(k3, ",") {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
}

// TestTailQuantile pins the smoothed quantiles: the mean of the order
// statistics within a band around q, and of at least the three nearest.
func TestTailQuantile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if got := tailQuantile(xs, 0.99); got < 985 || got > 995 {
		t.Fatalf("p99 of 1..1000: %v", got)
	}
	if got := tailQuantile(xs[:96], 0.99); got != 95 {
		t.Fatalf("p99 of 1..96: %v, want the mean of the top three, 95", got)
	}
	if got := tailQuantile([]float64{3, 1}, 0.5); got != 2 {
		t.Fatalf("median of {1, 3}: %v", got)
	}
	if got := smoothQuantile(xs[:96], 0.5, 0.05); got != 48.5 {
		t.Fatalf("smoothed median of 1..96: %v, want the mean of 44..53, 48.5", got)
	}
}

// TestCalibrationFactor checks the speed factor's arithmetic and that
// the calibration workload runs and takes measurable time.
func TestCalibrationFactor(t *testing.T) {
	var sp speedometer
	if f := sp.factor(); f != 1 {
		t.Fatalf("factor with no calibration %v, want 1", f)
	}
	sp.ns = []float64{float64(2 * refCalib), float64(refCalib), float64(4 * refCalib)}
	if f := sp.factor(); f != 0.5 {
		t.Fatalf("factor of calibrations 2×, 1×, 4× refCalib: %v, want 0.5", f)
	}
	if f := (&speedometer{}).measure(1); !(f > 0) {
		t.Fatalf("measured factor %v", f)
	}
}

// TestServeMixBalanced pins the serve mix: K=3..5 evenly, tree:cut 3:1.
func TestServeMixBalanced(t *testing.T) {
	g := newRequestGen(3, []string{"x", "y"}, [][]byte{nil, nil})
	count := map[string]int{}
	for _, j := range g.next(2 * len(serveSlots) * 5) {
		count[j.Engine]++
		count[j.Engine+string(rune('0'+j.K))]++
	}
	if count["tree"] != 3*count["cut"] || count["tree3"] != count["tree5"] || count["cut3"] != count["cut4"] {
		t.Fatalf("unbalanced mix %v", count)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the emitted metric names and
// units equal to BENCHMARK.json's, and every name in the allowed
// alphabet.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, c := range []struct {
		what string
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics emitted, %d in BENCHMARK.json", c.what, len(c.got), len(c.want))
		}
		for i, d := range c.got {
			if d.name != c.want[i].Name || d.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: emitted %s (%s), BENCHMARK.json has %s (%s)",
					c.what, i, d.name, d.unit, c.want[i].Name, c.want[i].Unit)
			}
			if !valid.MatchString(d.name) {
				t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.name)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
}

// TestFlippedLUTBitIsAFailure injects a served output with one LUT
// truth-table bit flipped: it must count as a failed request and make
// the run incorrect, on a ladder step as much as anywhere else.
func TestFlippedLUTBitIsAFailure(t *testing.T) {
	names, texts, err := suiteTexts()
	if err != nil {
		t.Fatal(err)
	}
	j := newRequestGen(1, names, texts).next(1)[0]
	ck := newChecker(1, false)
	good := (&jobRunner{}).run(j, false, 0)
	if good.Err != "" {
		t.Fatal(good.Err)
	}
	lines := strings.Split(string(good.out), "\n")
	flipped := false
	for i, l := range lines {
		if cube, ok := strings.CutSuffix(l, " 1"); ok && strings.Trim(cube, "01-") == "" && strings.ContainsAny(cube, "01") {
			b := []byte(cube)
			p := bytes.IndexAny(b, "01")
			b[p] ^= '0' ^ '1'
			lines[i] = string(b) + " 1"
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no LUT cube to flip")
	}
	reply := func(blif string) []byte {
		b, _ := json.Marshal(mapReply{LUTs: good.LUTs, BLIF: blif})
		return b
	}
	okResp := &sent{j: j, code: http.StatusOK, body: reply(string(good.out))}
	badResp := &sent{j: j, code: http.StatusOK, body: reply(strings.Join(lines, "\n"))}
	refused := &sent{j: j, code: http.StatusTooManyRequests}

	rep := newRunReport()
	ck.tally(rep, []*sent{okResp, badResp, refused}, map[*sent]bool{badResp: true, refused: true})
	if rep.Attempted != 3 || rep.Failed != 1 || rep.result(false).Correct {
		t.Fatalf("attempted %d failed %d correct %v; want 3, 1, false (failures %v)",
			rep.Attempted, rep.Failed, rep.result(false).Correct, rep.failures)
	}
}

// TestSmokeEachWorkload runs every workload end to end for one second
// against a chortled built from this checkout.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds chortled and runs all workloads")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "chortled")
	build := exec.Command("go", "build", "-o", bin, "./cmd/chortled")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building chortled: %v\n%s", err, out)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w, "-seed", "5", "-seconds", "1", "-trace", trace, "-chortled", bin},
				nil, &stdout, &stderr)
			out := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(out[len(out)-1]), &res); err != nil || code != 0 || !res.Correct {
				t.Fatalf("%s trace %s: exit %d, %v\n%s\n%s", w, trace, code, err, stdout.String(), stderr.String())
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			if trace == "0" && res.Metrics["luts_total"].Value == 0 {
				t.Fatalf("%s: no LUTs counted", w)
			}
		}
	}
}
