package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestMain doubles as a child that dies the way the simulator's
// concurrent-map crash does, for the failed-op accounting test.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_TEST_CRASH") == "1" {
		fmt.Fprintln(os.Stderr, "fatal error: concurrent map writes")
		fmt.Fprintln(os.Stderr, "goroutine 7 [running]:")
		os.Exit(2)
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	if _, _, ok := tailPercentile(make([]float64, 10)); ok {
		t.Fatal("10 samples cannot have a tail with 10 beyond it")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	pct, v, ok := tailPercentile(xs)
	if !ok || pct != 90 || v != 90 {
		t.Fatalf("100 samples: got p%v = %v (ok %v), want p90 = 90", pct, v, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail value, want 10", beyond)
	}
	pct, v, ok = tailPercentile([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11})
	if !ok || v != 1 || !near(pct, 100.0/11) {
		t.Fatalf("11 samples: got p%v = %v, want the minimum at p%.2f", pct, v, 100.0/11)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0}, 2.15, 4.4, 7.45},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || !near(s, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{3, 1, 2}) != 2 {
		t.Error("median")
	}
}

func TestDeadChildIsAFailedOpWithItsFirstStderrLine(t *testing.T) {
	p := spawn(os.Args[0], []string{"-test.run=^$"}, "PERFBENCH_TEST_CRASH=1")
	if p.err == nil {
		t.Fatal("crashing child reported success")
	}
	o := crash(p)
	if o.ok || !o.crashed || o.reason != "fatal error: concurrent map writes" {
		t.Fatalf("got %+v, want a crashed op keeping the first stderr line", o)
	}

	// The loop neither aborts on a crash nor counts it as a success: it
	// keeps going until two ops succeeded, whatever the time budget.
	seq := []op{o, {ok: true, digest: "d"}, o, {ok: true, digest: "d"}}
	i := 0
	ops := measureLoop(func() op { i++; return seq[i-1] }, 0, time.Minute, 2)
	if len(ops) != 4 {
		t.Fatalf("loop made %d ops, want 4", len(ops))
	}
	r, notes := tally(ops)
	if r.Attempted != 4 || r.Failed != 2 || !r.Correct || len(notes) != 2 {
		t.Fatalf("tally = %+v %q: want 4 attempted, 2 failed, still correct", r, notes)
	}
	if rep := newReport("w", 1, 0, ops, notes); rep.FailedShare != 0.5 || rep.SimDigest != "d" {
		t.Fatalf("report failed share %v digest %q", rep.FailedShare, rep.SimDigest)
	}
}

func TestTallyFlagsWrongOutputAndDigestDrift(t *testing.T) {
	r, _ := tally([]op{{ok: true, digest: "a"}, {reason: "completed 3 of 4"}})
	if r.Correct || r.Failed != 1 {
		t.Errorf("a failed check must fail the op and the run: %+v", r)
	}
	r, _ = tally([]op{{ok: true, digest: "a"}, {ok: true, digest: "b"}})
	if r.Correct || r.Failed != 0 {
		t.Errorf("differing digests must make the run incorrect: %+v", r)
	}
}

func TestMeasureLoopStopsWithinBudget(t *testing.T) {
	n := 0
	ops := measureLoop(func() op { n++; time.Sleep(10 * time.Millisecond); return op{ok: true} }, 55*time.Millisecond, time.Minute, 2)
	if len(ops) < 2 || len(ops) > 5 {
		t.Fatalf("made %d 10ms ops in a 55ms budget", len(ops))
	}
}

func TestCountingWriter(t *testing.T) {
	var buf bytes.Buffer
	cw := &countingWriter{w: &buf}
	fmt.Fprintf(cw, "%s,%d\n", "abc", 42)
	cw.Write([]byte("xyz"))
	if cw.n != int64(buf.Len()) || cw.n != 10 {
		t.Fatalf("counted %d bytes, wrote %d", cw.n, buf.Len())
	}
}

func TestDigestIsStableAndOrderSensitive(t *testing.T) {
	if digest("a", "b") != digest("a", "b") {
		t.Fatal("same parts, different digests")
	}
	if digest("a", "b") == digest("b", "a") || digest("ab") == digest("a", "b") {
		t.Fatal("digest must separate parts and keep their order")
	}
}

// TestObsClusterDigestAcrossParallelDomains runs the obs-cluster op in
// process, traced at ParallelDomains 1 and untraced at 2: the simulated results
// must agree byte for byte, every output check must pass, seed 1 must
// reproduce the pinned slo-burn verdict and the traced op's
// sim.parallel_bound must be an efficiency, in (0, 1].
func TestObsClusterDigestAcrossParallelDomains(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator twice")
	}
	var digests []string
	for _, pj := range []int{1, 2} {
		res := &childResult{Info: map[string]string{}}
		traced := pj == opPJ
		if traced {
			res.Layers = map[string]float64{}
		}
		if err := runObsCluster(childOpts{workload: "obs-cluster", seed: 1, pj: pj, traced: traced, work: t.TempDir()}, res); err != nil {
			t.Fatal(err)
		}
		if b := res.Layers["sim.parallel_bound"]; traced && (b <= 0 || b > 1) {
			t.Fatalf("sim.parallel_bound %v outside (0, 1]", b)
		}
		if len(res.Failures) > 0 {
			t.Fatalf("pj %d: %q", pj, res.Failures)
		}
		if res.Info["verdict"] != "slo-burn@3680.511ms" {
			t.Fatalf("pj %d verdict %s", pj, res.Info["verdict"])
		}
		digests = append(digests, res.Digest)
	}
	if digests[0] != digests[1] {
		t.Fatalf("sim_digest differs across ParallelDomains: %v", digests)
	}
}

func TestCheckEval(t *testing.T) {
	var out strings.Builder
	for i := 0; i < len(evalIDs); i++ {
		fmt.Fprintf(&out, "Table %d\n=======\nA  B\n----\n1  2\n\n", i)
	}
	out.WriteString("note: total 43.0 J/batch; data movement share 78.4% (paper: ~79%)\n")
	out.WriteString("note: Rerank: compute 10.0%, movement 57.7% of total (paper rerank movement: ~52%)\n")
	out.WriteString("note: ReACH: 4.67x throughput (paper: 4.5x), 2.42x latency (paper: 2.2x), 59.7% energy reduction (paper: 52%)\n")
	out.WriteString("Extension — recall vs probes (IVF shortlist size)\nProbes  Recall@10  Rerank MB/query (modelled)\n1       0.519      19.2\n2       0.794      38.4\n")
	info, reason := checkEval([]byte(out.String()))
	if reason != "" {
		t.Fatalf("in-band output failed: %s", reason)
	}
	if info["fig13.throughput_x"] != "4.6700" || info["recall@10.probes_2"] != "0.794" {
		t.Fatalf("info %v", info)
	}
	bad := strings.Replace(out.String(), "4.67x throughput", "4.50x throughput", 1)
	if _, reason := checkEval([]byte(bad)); !strings.Contains(reason, "fig13.throughput_x") {
		t.Fatalf("out-of-band throughput passed: %q", reason)
	}
	if _, reason := checkEval([]byte("Table\n=====\nA\n---\n\n")); reason == "" {
		t.Fatal("an empty evaluation passed")
	}
}

func TestGCTrace(t *testing.T) {
	stderr := []byte("gc 1 @0.012s 2%: 0.015+0.50+0.003 ms clock, 0.030+0.1/0.2/0+0.006 ms cpu, 4->4->0 MB, 4 MB goal, 2 P\n" +
		"unrelated line\n" +
		"gc 2 @0.020s 3%: 0.100+1.0+0.200 ms clock, 0.2+0/0/0+0.4 ms cpu, 8->8->1 MB, 9 MB goal, 2 P\n")
	n, ms := gcTrace(stderr)
	if n != 2 || !near(ms, 0.318) {
		t.Fatalf("got %v cycles, %v ms pause; want 2, 0.318", n, ms)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileSelfTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f.Close()
	st := selfTime{}
	if err := st.addProfile(path); err != nil {
		t.Fatal(err)
	}
	var total, spun int64
	for fn, ns := range st {
		total += ns
		if strings.HasSuffix(fn, ".spin") {
			spun += ns
		}
	}
	if total == 0 || float64(spun) < 0.5*float64(total) {
		t.Fatalf("spin has %d of %d ns self time: %v", spun, total, st)
	}
	shares := st.shares()
	if len(shares) != len(cpuLayers) {
		t.Fatalf("%d shares for %d layers", len(shares), len(cpuLayers))
	}
}

func TestPprofTopRows(t *testing.T) {
	top := []byte(`File: reachsim
Type: cpu
Showing nodes accounting for 500000000ns, 100% of 500000000ns total
      flat  flat%   sum%        cum   cum%
230000000ns 46.00% 46.00% 280000000ns 56.00%  repro/internal/core.(*GAM).pickIdle
60000000ns 12.00% 58.00% 60000000ns 12.00%  internal/runtime/maps.ctrlGroup.matchH2 (inline)
10000000ns  2.00% 60.00% 10000000ns  2.00%  repro/internal/core.(*GAM).pickIdle
         0     0%   60.00% 490000000ns 98.00%  main.main
`)
	st := selfTime{}
	if err := st.addTop(top); err != nil {
		t.Fatal(err)
	}
	if st["repro/internal/core.(*GAM).pickIdle"] != 240000000 || st["internal/runtime/maps.ctrlGroup.matchH2"] != 60000000 || st["main.main"] != 0 {
		t.Fatalf("self time %v", st)
	}
	if err := (selfTime{}).addTop([]byte("no table\n")); err == nil {
		t.Fatal("output without a table parsed")
	}
}

func TestArtifactsNameAndCheckEveryFile(t *testing.T) {
	write := func(dir, name, body string) {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	header := strings.Join(metrics.CSVHeader(), ",") + "\n"
	a, b := t.TempDir(), t.TempDir()
	for _, dir := range []string{a, b} {
		write(dir, "m.csv", header)
		write(dir, "flight/bundle-1us/verdict.json", `{"detector":"slo-burn"}`)
	}
	write(b, "t.json", `{"traceEvents":[]}`)
	fa, na, err := hashArtifacts(a, []byte("table\n"))
	if err != nil {
		t.Fatal(err)
	}
	fb, _, err := hashArtifacts(b, []byte("table\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len("table\n") + len(header) + len(`{"detector":"slo-burn"}`)); na != want {
		t.Errorf("counted %d artifact bytes, want %d", na, want)
	}
	if filesDigest(fa) == filesDigest(fb) {
		t.Error("a missing file must change the digest")
	}
	if got := differingFiles(fa, fb); strings.Join(got, ",") != "t.json" {
		t.Errorf("differing files %v, want [t.json]", got)
	}
	if fails := checkArtifacts(b, "m.csv", "t.json", "flight"); len(fails) != 0 {
		t.Errorf("good artifacts failed: %q", fails)
	}
	if fails := checkArtifacts(a, "t.json"); len(fails) != 1 {
		t.Errorf("a missing t.json gave %q", fails)
	}
	write(b, "t.json", `{"traceEvents":[`)
	write(b, "m.csv", "time,value\n")
	if fails := checkArtifacts(b); len(fails) != 2 {
		t.Errorf("broken JSON and CSV header gave %q", fails)
	}
}

func TestCPULayerOfFunction(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*GAM).pickIdle":         "core",
		"repro/internal/sim.(*Engine).runBound.func1": "sim",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "runtime",
		"strconv.AppendFloat":                         "encoding",
		"encoding/csv.(*Writer).Write":                "encoding",
		"fmt.Sprintf":                                 "encoding",
		"sync.(*Mutex).Lock":                          "",
		"main.main":                                   "",
	} {
		if got := cpuLayer(funcPackage(fn)); got != want {
			t.Errorf("%s → %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric names and
// units in step with what the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []m, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer())
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, benchmark has %v", names, workloads)
	}
}
