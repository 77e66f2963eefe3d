// Command perfbench is the repository's benchmark. It measures the host
// time researchers wait for when they run the simulator, end to end and
// layer by layer, on four workloads:
//
//	eval          reachsim -exp all -j 2: the paper's full evaluation
//	cluster64     a 64-node, 64-shard cluster under 2048 Poisson queries
//	obs-cluster   the 4-node flash crowd with every cluster sink armed
//	obs-pipeline  reachsim -trace -spans -metrics: one traced pipeline
//
// Every op runs in a fresh process and its output is checked. With
// -trace 0 it reports the end-to-end metrics of untraced ops; with
// -trace 1 it runs one traced op and reports the per-layer metrics. The
// last line of stdout is the result JSON; the line before it carries the
// provenance, the simulated-result digest and every op.
//
// Run it from the repository root through perfbench/run.sh, which builds
// both binaries first:
//
//	bash perfbench/run.sh --workload cluster64 --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

var workloads = []string{"eval", "cluster64", "obs-cluster", "obs-pipeline"}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed    = flag.Int64("seed", 1, "seed of the arrival schedules and the router (default 1; held-out seed 7)")
		seconds = flag.Int("seconds", 20, "how long one run measures")
		traceF  = flag.Int("trace", 0, "0: end-to-end metrics from untraced ops; 1: per-layer metrics from a traced op")
		repeat  = flag.Int("repeat", 0, "with -trace 0, make this many runs at seeds seed, seed+1, ... and print each metric's median and quartile spread")

		child     = flag.String("child", "", "run one op of this workload in this process (used by the benchmark itself)")
		pj        = flag.Int("pj", opPJ, "with -child, cluster ParallelDomains")
		traced    = flag.Bool("traced", false, "with -child, trace the op")
		setupOnly = flag.Bool("setup-only", false, "with -child, exit once the op is set up")
		work      = flag.String("work", "", "with -child, directory for the op's artifacts")
	)
	flag.Parse()
	if *child != "" {
		o := childOpts{workload: *child, seed: *seed, pj: *pj, traced: *traced, setupOnly: *setupOnly, work: *work}
		if err := runChild(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if !slices.Contains(workloads, *wl) || *seconds < 1 || (*traceF != 0 && *traceF != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	b, err := newBench(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	budget := time.Duration(*seconds) * time.Second
	if *repeat > 0 {
		err = repeatRuns(b, *wl, budget, *repeat)
	} else {
		err = oneRun(b, *wl, budget, *traceF == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// newBench sets up a run from the repository root, where run.sh has
// built reachsim into .bench_build/.
func newBench(seed int64) (*bench, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &bench{root: root, self: self, reachsim: filepath.Join(build, "reachsim"), work: work, seed: seed}, nil
}

// runReport is the line before the result: how the numbers came about.
type runReport struct {
	Workload        string            `json:"workload"`
	Seed            int64             `json:"seed"`
	Trace           int               `json:"trace"`
	Provenance      provenance        `json:"provenance"`
	SimDigest       string            `json:"sim_digest"`
	FailedShare     float64           `json:"failed_share"`
	OpSTail         *tail             `json:"op_s.tail,omitempty"`
	TracingOverhead float64           `json:"tracing_overhead,omitempty"`
	Info            map[string]string `json:"info,omitempty"`
	Ops             []opReport        `json:"ops"`
	Notes           []string          `json:"notes,omitempty"`
}

type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Ops        int     `json:"ops"`
}

type opReport struct {
	OK         bool    `json:"ok"`
	Reason     string  `json:"reason,omitempty"`
	OpS        float64 `json:"op_s,omitempty"`
	PeakMB     float64 `json:"peak_mem_mb,omitempty"`
	ArtifactMB float64 `json:"artifact_mb,omitempty"`
	Digest     string  `json:"sim_digest,omitempty"`
}

func oneRun(b *bench, wl string, budget time.Duration, traced bool) error {
	var (
		res result
		rep runReport
		err error
	)
	if traced {
		res, rep, err = tracedRun(b, wl)
	} else {
		res, rep, err = measuredRun(b, wl, budget)
	}
	if err != nil {
		return err
	}
	rep.Provenance = provenanceOf(b.root)
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	raw, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// measuredRun makes untraced ops for the run's time and reports the
// end-to-end metrics as medians over the successful ops.
func measuredRun(b *bench, wl string, budget time.Duration) (result, runReport, error) {
	run := func() op { return b.childOp(wl, opPJ, false) }
	setup := func() (float64, error) { return b.childSetup(wl) }
	switch wl {
	case "eval":
		run, setup = b.evalOp, b.evalSetup
	case "obs-pipeline":
		run = b.pipelineOp
	}
	ops := measureLoop(run, budget, 120*time.Second, 3)
	res, notes := tally(ops)
	rep := newReport(wl, b.seed, 0, ops, notes)
	ok := okOps(ops)
	if len(ok) == 0 {
		return res, rep, fmt.Errorf("%s: no op succeeded in %d attempts: %s", wl, len(ops), ops[0].reason)
	}
	var setups []float64
	for i := 0; i < setupLaunches; i++ {
		s, err := setup()
		if err != nil {
			return res, rep, err
		}
		setups = append(setups, s)
	}
	opS := collect(ok, func(o op) float64 { return o.opS })
	if pct, v, found := tailPercentile(opS); found {
		rep.OpSTail = &tail{Percentile: pct, Value: v, Ops: len(opS)}
	}
	set := func(name string, v float64) {
		for _, m := range endToEnd {
			if m.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: m.unit}
			}
		}
	}
	set("setup_s", median(setups))
	set("op_s", median(opS))
	set("peak_mem_mb", median(collect(ok, func(o op) float64 { return o.peakMB })))
	set("artifact_mb", median(collect(ok, func(o op) float64 { return float64(o.artifact) / 1e6 })))
	return res, rep, nil
}

// tracedRun makes one untraced op and one traced op and reports the
// per-layer metrics. On the cluster workloads it also makes pj2Probes
// ops at ParallelDomains 2: they are not ops of the run (a share of them
// dies of ROADMAP item 1's race), but their outputs must match the
// untraced op's and their crashes are counted in sim.pj2_crash_share. A
// workload reports 0 for a layer it does not exercise.
func tracedRun(b *bench, wl string) (result, runReport, error) {
	var ops []op
	var u, t op
	if wl == "eval" {
		ops = firstOK(opTries, b.evalOp)
		u = ops[len(ops)-1]
		if u.ok {
			t = b.evalTraced(u)
			ops = append(ops, t)
		}
	} else {
		run := func() op { return b.childOp(wl, opPJ, false) }
		if wl == "obs-pipeline" {
			run = b.pipelineOp
		}
		ops = firstOK(opTries, run)
		u = ops[len(ops)-1]
		tops := firstOK(opTries, func() op { return b.childOp(wl, opPJ, true) })
		t = tops[len(tops)-1]
		ops = append(ops, tops...)
		// The CLI runs obs-cluster at seed 1 only; there its outputs must
		// equal the in-process op's byte for byte (tally compares digests).
		if wl == "obs-cluster" && b.seed == 1 {
			ops = append(ops, firstOK(opTries, b.obsClusterCLIOp)...)
		}
	}
	res, notes := tally(ops)
	rep := newReport(wl, b.seed, 1, ops, notes)
	if !u.ok || !t.ok {
		return res, rep, fmt.Errorf("%s: traced run did not complete: untraced %q, traced %q", wl, u.reason, t.reason)
	}
	rep.TracingOverhead = t.opS / u.opS
	for k, v := range t.info {
		rep.Info[k] = v
	}
	for _, m := range perLayer() {
		res.Metrics[m.name] = metricValue{Value: t.layers[m.name], Unit: m.unit}
	}
	if wl == "cluster64" || wl == "obs-cluster" {
		crashShare, speedup := pj2Probe(b, wl, u, &res, &rep)
		res.Metrics["sim.pj2_crash_share"] = metricValue{Value: crashShare, Unit: "share"}
		res.Metrics["sim.pj_speedup"] = metricValue{Value: speedup, Unit: "x"}
	}
	return res, rep, nil
}

// pj2Probe runs workload wl pj2Probes times at ParallelDomains 2 and
// returns the share of processes that died and op_s at pj 1 ÷ the median
// op_s of the probes that completed (0 if none did). A probe that
// completes with other outputs than u, the pj 1 op, makes the run
// incorrect: simulated results must not depend on the worker count.
func pj2Probe(b *bench, wl string, u op, res *result, rep *runReport) (crashShare, speedup float64) {
	var times []float64
	crashed := 0
	for i := 0; i < pj2Probes; i++ {
		p := b.childOp(wl, workers, false)
		switch {
		case p.crashed:
			crashed++
			rep.Notes = append(rep.Notes, fmt.Sprintf("pj 2 probe %d died: %s", i+1, p.reason))
		case !p.ok || p.digest != u.digest:
			res.Correct = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("pj 2 probe %d: %s sim_digest %s, pj 1 %s%s",
				i+1, p.reason, p.digest, u.digest, artifactNote(u.files, p.files)))
		default:
			times = append(times, p.opS)
		}
	}
	if len(times) > 0 {
		speedup = u.opS / median(times)
	}
	return float64(crashed) / pj2Probes, speedup
}

func newReport(wl string, seed int64, trace int, ops []op, notes []string) runReport {
	rep := runReport{Workload: wl, Seed: seed, Trace: trace, Info: map[string]string{}, Notes: notes}
	failed := 0
	for _, o := range ops {
		rep.Ops = append(rep.Ops, opReport{
			OK: o.ok, Reason: o.reason, OpS: o.opS,
			PeakMB: o.peakMB, ArtifactMB: float64(o.artifact) / 1e6, Digest: o.digest,
		})
		if !o.ok {
			failed++
			continue
		}
		if rep.SimDigest == "" {
			rep.SimDigest = o.digest
			for k, v := range o.info {
				rep.Info[k] = v
			}
		}
	}
	if len(ops) > 0 {
		rep.FailedShare = float64(failed) / float64(len(ops))
	}
	return rep
}

// repeatRuns makes n untraced runs at consecutive seeds and prints, per
// end-to-end metric, the median and the inter-quartile spread as a share
// of the median — the figure BENCHMARK.json's bounds are judged against.
func repeatRuns(b *bench, wl string, budget time.Duration, n int) error {
	vals := map[string][]float64{}
	first := b.seed
	for i := 0; i < n; i++ {
		b.seed = first + int64(i)
		res, rep, err := measuredRun(b, wl, budget)
		if err != nil {
			return err
		}
		raw, _ := json.Marshal(res)
		var opS []string
		for _, o := range rep.Ops {
			opS = append(opS, fmt.Sprintf("%.3fs/%.0fMB", o.OpS, o.PeakMB))
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s digest %s failed_share %.3f ops [%s]\n",
			b.seed, raw, rep.SimDigest, rep.FailedShare, strings.Join(opS, " "))
		for k, v := range res.Metrics {
			vals[k] = append(vals[k], v.Value)
		}
	}
	type row struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
	}
	out := map[string]row{}
	for k, xs := range vals {
		q1, q2, q3, _ := quartiles(xs)
		s, _ := spread(xs)
		out[k] = row{Median: q2, Q1: q1, Q3: q3, Spread: s}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// provenance stamps a result with the host and build it came from, so a
// figure from a 1-core host is never read as evidence about parallelism.
type provenance struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPU          string `json:"cpu"`
	Go           string `json:"go"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func provenanceOf(root string) provenance {
	p := provenance{NProc: runtime.NumCPU(), GOMAXPROCS: workers, CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
	}
	p.SourceDigest = sourceDigest(root)
	return p
}

// sourceDigest hashes every Go source and module file of the checkout
// (hidden directories excluded), naming the code measured even where the
// checkout is not a git repository.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
