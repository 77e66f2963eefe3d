package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Load comes from one process at a time, never wider than the 2-core
// host the benchmark was defined on: reachsim -j 2, GOMAXPROCS 2 in every
// child.
const (
	workers   = 2
	opTimeout = 150 * time.Second
)

// opPJ is the ParallelDomains of every measured cluster op: 1, the
// program's default. At 2 the shared-registry race (ROADMAP item 1) kills
// a random share of the processes, so a run's failed count would not
// repeat. The traced run measures ParallelDomains 2 with pj2Probes extra
// ops that are reported as sim.pj2_crash_share and sim.pj_speedup.
const (
	opPJ      = 1
	pj2Probes = 4
)

// opTries bounds the attempts at each op of a traced run.
const opTries = 3

// setupLaunches is how many set-up-only processes a measured run starts
// after its ops; setup_s is the median of their set-up times.
const setupLaunches = 31

// op is one measured unit of work: a child process that ran to the end,
// or one that died, which is a failed op.
type op struct {
	ok       bool
	crashed  bool   // the process died or exited non-zero
	reason   string // first stderr line of a crash, or the failed checks
	opS      float64
	peakMB   float64
	artifact int64
	digest   string
	files    map[string]string // artifact hashes of an obs-* op
	info     map[string]string
	layers   map[string]float64
	stdout   []byte
}

// bench holds what every op needs: where the binaries are and the
// scratch directory for artifacts.
type bench struct {
	root, self, reachsim string
	work                 string
	seed                 int64
}

// proc is one finished child process.
type proc struct {
	stdout, stderr []byte
	wall           time.Duration
	t0             int64 // wall clock at spawn, Unix ns
	maxRSSMB       float64
	cpuS           float64 // user + system CPU time
	err            error
}

// spawn runs a child to completion with GOMAXPROCS pinned, capturing its
// output. It always waits for the process to end.
func spawn(name string, args []string, env ...string) proc {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Env = append(os.Environ(), append([]string{fmt.Sprintf("GOMAXPROCS=%d", workers)}, env...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	p := proc{t0: time.Now().UnixNano()}
	start := time.Now()
	p.err = cmd.Run()
	p.wall = time.Since(start)
	p.stdout, p.stderr = out.Bytes(), errb.Bytes()
	if st := cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			p.maxRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
			p.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		}
	}
	return p
}

// crash turns a failed process into a failed op, keeping the first
// stderr line (e.g. "fatal error: concurrent map writes").
func crash(p proc) op {
	reason := p.err.Error()
	if line, _, _ := bytes.Cut(bytes.TrimSpace(p.stderr), []byte("\n")); len(line) > 0 {
		reason = string(line)
	}
	return op{crashed: true, reason: reason}
}

// childOp runs one in-process op of workload in a fresh child.
func (b *bench) childOp(workload string, pj int, traced bool) op {
	dir, err := os.MkdirTemp(b.work, workload+"-")
	if err != nil {
		return op{crashed: true, reason: err.Error()}
	}
	defer os.RemoveAll(dir)
	args := []string{"-child", workload, "-seed", fmt.Sprint(b.seed), "-pj", fmt.Sprint(pj),
		"-work", dir, "-traced=" + strconv.FormatBool(traced)}
	p := spawn(b.self, args)
	if p.err != nil {
		return crash(p)
	}
	var r childResult
	if err := json.Unmarshal(p.stdout, &r); err != nil {
		return op{crashed: true, reason: "unreadable child result: " + err.Error()}
	}
	o := op{
		opS:      float64(r.OpDone-p.t0) / 1e9,
		peakMB:   p.maxRSSMB,
		artifact: r.Artifact,
		digest:   r.Digest,
		files:    r.Files,
		info:     r.Info,
		layers:   r.Layers,
	}
	o.ok = len(r.Failures) == 0
	o.reason = strings.Join(r.Failures, "; ")
	return o
}

// childSetup is the set-up time of workload's in-process op: the CPU
// time of a child that sets the op up and exits before the first
// simulated event.
func (b *bench) childSetup(workload string) (float64, error) {
	args := []string{"-child", workload, "-seed", fmt.Sprint(b.seed), "-pj", fmt.Sprint(opPJ),
		"-work", b.work, "-setup-only"}
	p := spawn(b.self, args)
	if p.err != nil {
		return 0, fmt.Errorf("%s set-up: %v", workload, crash(p).reason)
	}
	return p.cpuS, nil
}

// cliOp runs the reachsim binary with the arguments args returns for a
// fresh artifact directory, and names and checks the op by its stdout and
// the files it wrote there.
func (b *bench) cliOp(workload string, args func(dir string) []string, want ...string) op {
	dir, err := os.MkdirTemp(b.work, workload+"-")
	if err != nil {
		return op{crashed: true, reason: err.Error()}
	}
	defer os.RemoveAll(dir)
	p := spawn(b.reachsim, args(dir))
	if p.err != nil {
		return crash(p)
	}
	o := op{opS: p.wall.Seconds(), peakMB: p.maxRSSMB, info: map[string]string{}}
	files, n, err := hashArtifacts(dir, p.stdout)
	if err != nil {
		return op{crashed: true, reason: err.Error()}
	}
	o.files, o.artifact, o.digest = files, n, filesDigest(files)
	o.reason = strings.Join(checkArtifacts(dir, want...), "; ")
	o.ok = o.reason == ""
	return o
}

// pipelineOp is the obs-pipeline op: `reachsim -trace t.json -spans
// -metrics m.csv`, one sampled, traced 8-batch ReACH pipeline.
func (b *bench) pipelineOp() op {
	return b.cliOp("obs-pipeline", func(dir string) []string {
		return []string{"-trace", filepath.Join(dir, "t.json"), "-spans", "-metrics", filepath.Join(dir, "m.csv")}
	}, "m.csv", "t.json")
}

// obsClusterCLIOp is the obs-cluster op at seed 1 as the CLI runs it:
// `reachsim -cluster -arrival flash -slo 400 -flight D -detect -metrics
// m.csv -spans -trace t.json -pj 1`. The CLI fixes the seed at 1.
func (b *bench) obsClusterCLIOp() op {
	return b.cliOp("obs-cluster", func(dir string) []string {
		return []string{"-cluster", "-arrival", "flash", "-slo", "400", "-flight", filepath.Join(dir, "flight"), "-detect",
			"-metrics", filepath.Join(dir, "m.csv"), "-spans", "-trace", filepath.Join(dir, "t.json"), "-pj", fmt.Sprint(opPJ)}
	}, "m.csv", "t.json", "flight")
}

// evalOp is one full paper evaluation: `reachsim -exp all -j 2` in a
// fresh process, its output checked.
func (b *bench) evalOp() op {
	p := spawn(b.reachsim, []string{"-exp", "all", "-j", fmt.Sprint(workers)})
	if p.err != nil {
		return crash(p)
	}
	o := op{opS: p.wall.Seconds(), peakMB: p.maxRSSMB, artifact: int64(len(p.stdout)), stdout: p.stdout}
	o.info, o.reason = checkEval(p.stdout)
	o.ok = o.reason == ""
	o.digest = digest(string(p.stdout))
	return o
}

// evalSetup is the CPU time every reachsim invocation pays before its
// first simulated event: process start, config and model construction,
// the shared pool — `-exp table2` runs all of it and no simulation. It
// is eval's set-up, which runs the binary and cannot be stopped there.
func (b *bench) evalSetup() (float64, error) {
	p := spawn(b.reachsim, []string{"-exp", "table2", "-j", fmt.Sprint(workers)})
	if p.err != nil {
		return 0, fmt.Errorf("reachsim -exp table2: %v", crash(p).reason)
	}
	return p.cpuS, nil
}

// Headline bands pinned by the repository's TestHeadlineRegression.
var (
	fig13Note = regexp.MustCompile(`ReACH: ([0-9.]+)x throughput .*?, ([0-9.]+)x latency .*?, ([0-9.]+)% energy reduction`)
	fig8Move  = regexp.MustCompile(`data movement share ([0-9.]+)%`)
	fig8RR    = regexp.MustCompile(`Rerank: compute [0-9.]+%, movement ([0-9.]+)% of total`)
	recallRow = regexp.MustCompile(`(?m)^(\d+)\s+([0-9.]+)\s+[0-9.]+$`)
)

type band struct {
	name           string
	re             *regexp.Regexp
	group          int
	scale          float64 // printed value × scale = pinned unit
	want, tolerate float64
}

var headlines = []band{
	{"fig13.throughput_x", fig13Note, 1, 1, 4.666, 0.01},
	{"fig13.latency_x", fig13Note, 2, 1, 2.423, 0.01},
	{"fig13.energy_reduction", fig13Note, 3, 0.01, 0.597, 0.005},
	{"fig8.movement_share", fig8Move, 1, 0.01, 0.784, 0.005},
	{"fig8.rerank_movement_share", fig8RR, 1, 0.01, 0.577, 0.005},
}

// checkEval verifies `-exp all` output: one non-empty table per
// experiment and the Fig. 13/Fig. 8 headlines inside their pinned bands.
// It returns the headline values and recall@10 per probe count, and the
// failed checks ("" when all pass).
func checkEval(out []byte) (map[string]string, string) {
	info := map[string]string{}
	var fails []string
	if n := countTables(out); n != len(evalIDs) {
		fails = append(fails, fmt.Sprintf("%d non-empty tables, want %d", n, len(evalIDs)))
	}
	for _, h := range headlines {
		m := h.re.FindSubmatch(out)
		if m == nil {
			fails = append(fails, h.name+" missing")
			continue
		}
		v, _ := strconv.ParseFloat(string(m[h.group]), 64)
		v *= h.scale
		info[h.name] = strconv.FormatFloat(v, 'f', 4, 64)
		if d := v - h.want; d > h.tolerate || d < -h.tolerate {
			fails = append(fails, fmt.Sprintf("%s = %.4f outside %.3f ± %.3f", h.name, v, h.want, h.tolerate))
		}
	}
	if _, rest, ok := bytes.Cut(out, []byte("recall vs probes")); ok {
		for _, m := range recallRow.FindAllSubmatch(rest, -1) {
			info["recall@10.probes_"+string(m[1])] = string(m[2])
		}
	}
	return info, strings.Join(fails, "; ")
}

// countTables counts rendered tables that have at least one row: a title
// underlined with '=', a header, a '-' rule and then a row.
func countTables(out []byte) int {
	lines := strings.Split(string(out), "\n")
	n := 0
	for i := 1; i+3 < len(lines); i++ {
		if isRule(lines[i], '=') && isRule(lines[i+2], '-') && strings.TrimSpace(lines[i+3]) != "" {
			n++
		}
	}
	return n
}

func isRule(s string, c rune) bool {
	return len(s) > 0 && strings.Trim(s, string(c)) == ""
}

// measureLoop runs ops until the run has used its time: it keeps
// starting ops while the next one, judged by the last, should end within
// the budget, and in any case until minOK ops succeeded. A failed op
// never ends the run early. hardCap bounds the whole loop, so a run of
// crashes still terminates.
func measureLoop(run func() op, budget, hardCap time.Duration, minOK int) []op {
	start := time.Now()
	var ops []op
	ok := 0
	for {
		t := time.Now()
		o := run()
		ops = append(ops, o)
		if o.ok {
			ok++
		}
		elapsed, last := time.Since(start), time.Since(t)
		if elapsed >= hardCap || (ok >= minOK && elapsed+last > budget) {
			return ops
		}
	}
}

// result is the benchmark's verdict on a run: the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts ops into a result: a crashed op is a failed op; an op
// whose output fails a check is a failed op and makes the run incorrect;
// so do digests that differ between ops of the same inputs.
func tally(ops []op) (result, []string) {
	r := result{Correct: true, Attempted: len(ops), Metrics: map[string]metricValue{}}
	var notes []string
	var first op
	for i, o := range ops {
		if !o.ok {
			r.Failed++
			if !o.crashed {
				r.Correct = false
			}
			notes = append(notes, fmt.Sprintf("op %d failed: %s", i+1, o.reason))
			continue
		}
		if first.digest == "" {
			first = o
		} else if o.digest != first.digest {
			r.Correct = false
			notes = append(notes, fmt.Sprintf("op %d sim_digest %s differs from %s%s",
				i+1, o.digest, first.digest, artifactNote(first.files, o.files)))
		}
	}
	return r, notes
}

// okOps returns the successful ops.
func okOps(ops []op) []op {
	var out []op
	for _, o := range ops {
		if o.ok {
			out = append(out, o)
		}
	}
	return out
}

func collect(ops []op, f func(op) float64) []float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = f(o)
	}
	return xs
}

// firstOK runs op until one succeeds, at most tries times, and returns
// every attempt (the last is the success, if any).
func firstOK(tries int, run func() op) []op {
	var ops []op
	for i := 0; i < tries; i++ {
		o := run()
		ops = append(ops, o)
		if o.ok {
			break
		}
	}
	return ops
}

// evalTraced runs the eval workload's traced op: `-exp all -j 2` again
// with a CPU profile and the garbage collector's trace on, then every
// experiment in its own `reachsim -exp <id> -j 1` process, one after
// another, each timed (experiments.<id>_s). Both must reproduce the
// untraced output byte for byte: the profiled run as a whole, the serial
// runs concatenated in -exp all order.
func (b *bench) evalTraced(untraced op) op {
	prof := filepath.Join(b.work, "eval.pprof")
	defer os.Remove(prof)
	p := spawn(b.reachsim, []string{"-exp", "all", "-j", fmt.Sprint(workers), "-cpuprofile", prof}, "GODEBUG=gctrace=1")
	if p.err != nil {
		return crash(p)
	}
	o := op{ok: true, opS: p.wall.Seconds(), peakMB: p.maxRSSMB, artifact: int64(len(p.stdout)), layers: map[string]float64{}}
	o.digest = digest(string(p.stdout))
	var fails []string
	o.info, _ = checkEval(p.stdout)
	if !bytes.Equal(p.stdout, untraced.stdout) {
		fails = append(fails, "profiled -exp all output differs from the untraced one")
	}
	st := selfTime{}
	if err := st.addProfile(prof); err != nil {
		fails = append(fails, err.Error())
	}
	for k, v := range st.shares() {
		o.layers[k] = v
	}
	o.layers["runtime.gc_cycles"], o.layers["runtime.gc_pause_ms"] = gcTrace(p.stderr)

	var all bytes.Buffer
	var serial float64
	for _, id := range evalIDs {
		p := spawn(b.reachsim, []string{"-exp", id, "-j", "1"})
		if p.err != nil {
			c := crash(p)
			c.reason = id + ": " + c.reason
			return c
		}
		o.layers["experiments."+id+"_s"] = p.wall.Seconds()
		serial += p.wall.Seconds()
		all.Write(p.stdout)
	}
	o.layers["runner.parallel_eff"] = serial / (workers * untraced.opS)
	if !bytes.Equal(all.Bytes(), untraced.stdout) {
		fails = append(fails, "per-experiment outputs differ from the -exp all output")
	}
	if len(fails) > 0 {
		o.ok, o.reason = false, strings.Join(fails, "; ")
	}
	return o
}

// gcTrace sums GODEBUG=gctrace=1 lines: "gc N @t s P%: a+b+c ms clock,
// ..." where a and c are the stop-the-world pauses.
func gcTrace(stderr []byte) (cycles, pauseMS float64) {
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		_, rest, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		clock, _, _ := strings.Cut(rest, " ms clock")
		parts := strings.Split(clock, "+")
		if len(parts) != 3 {
			continue
		}
		a, err1 := strconv.ParseFloat(parts[0], 64)
		c, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		cycles++
		pauseMS += a + c
	}
	return cycles, pauseMS
}
