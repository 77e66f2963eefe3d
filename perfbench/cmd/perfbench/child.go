package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/inspect"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// One in-process op runs in a child process of its own, so every op pays
// what a fresh simulator process pays and a crash in the simulator kills
// only that op. The child prints one childResult as JSON on stdout.

// childOpts are the child's inputs, passed as flags by the parent
// benchmark process.
type childOpts struct {
	workload  string
	seed      int64
	pj        int
	traced    bool
	setupOnly bool   // report set-up time and exit before the first event
	work      string // scratch directory for the op's artifacts
}

// childResult is what an op reports back. OpDone is wall-clock Unix ns so
// the parent can measure from the moment it spawned the process.
type childResult struct {
	OpDone   int64              `json:"op_done_ns"`
	Artifact int64              `json:"artifact_bytes"`
	Digest   string             `json:"digest"`
	Files    map[string]string  `json:"files,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Info     map[string]string  `json:"info,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
}

func (r *childResult) fail(format string, a ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

func stamp() int64 { return time.Now().UnixNano() }

// setupDone marks the end of set-up, just before the first simulated
// event: a set-up-only child exits there, and the parent reads the CPU
// time it used.
func setupDone(o childOpts) {
	if o.setupOnly {
		os.Exit(0)
	}
}

// artifactsDone names an obs-* op by its report and the files under
// o.work, and checks them.
func artifactsDone(o childOpts, res *childResult, stdout []byte, want ...string) error {
	files, n, err := hashArtifacts(o.work, stdout)
	if err != nil {
		return err
	}
	res.Files, res.Artifact, res.Digest = files, n, filesDigest(files)
	res.Failures = append(res.Failures, checkArtifacts(o.work, want...)...)
	return nil
}

// childWorkloads are the workloads a child runs in-process; eval runs the
// reachsim binary instead.
var childWorkloads = map[string]func(childOpts, *childResult) error{
	"cluster64":    runCluster64,
	"obs-cluster":  runObsCluster,
	"obs-pipeline": runObsPipeline,
}

func runChild(o childOpts) error {
	fn, ok := childWorkloads[o.workload]
	if !ok {
		return fmt.Errorf("no in-process op for workload %q", o.workload)
	}
	res := &childResult{Info: map[string]string{}}
	if o.setupOnly {
		err := fn(o, res)
		return fmt.Errorf("%s op returned without ending its set-up (err %v)", o.workload, err)
	}
	if o.traced {
		res.Layers = map[string]float64{}
		// Beside the work directory, whose every file is an artifact.
		prof := o.work + ".pprof"
		defer os.Remove(prof)
		f, err := os.Create(prof)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		err = fn(o, res)
		pprof.StopCPUProfile()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		st := selfTime{}
		if err := st.addProfile(prof); err != nil {
			return err
		}
		for k, v := range st.shares() {
			res.Layers[k] = v
		}
	} else if err := fn(o, res); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runCluster64 is a fresh 64-node, 64-shard, 2-way replicated cluster
// under 2048 Poisson queries at 100 q/s with p2c routing and every sink
// off: the event engine, barrier coordination, GAM dispatch, energy
// accounting and the router do the work.
func runCluster64(o childOpts, res *childResult) error {
	const queries, qps = 2048, 100
	ccfg := config.DefaultCluster()
	ccfg.Nodes, ccfg.Shards, ccfg.ShardMap = 64, 64, nil
	ccfg.ParallelDomains = o.pj
	ccfg.RouteSeed = o.seed
	arr := experiments.ArrivalSpec{Process: experiments.ArrivalPoisson, Seed: o.seed}

	var rt *runTracer
	start := time.Now()
	cl, table, err := experiments.ClusterRun(workload.DefaultModel(), ccfg, queries, qps, arr, qtrace.Options{},
		func(cl *cluster.Cluster) {
			if o.traced {
				rt = startRunTrace(cl, start, nil)
				cl.Multi().SetBarrierObserver(rt.rounds)
			}
			setupDone(o)
		})
	if err != nil {
		return err
	}
	if rt != nil {
		rt.runDone()
	}
	var out bytes.Buffer
	if err := table.Render(&out); err != nil {
		return err
	}
	res.OpDone = stamp()
	res.Artifact = int64(out.Len())
	res.Digest = digest(out.String())
	if cl.Completed() != cl.Submitted() {
		res.fail("completed %d of %d submitted queries", cl.Completed(), cl.Submitted())
	}
	clusterInfo(res, cl)
	if rt != nil {
		rt.finish(res, cl, queries)
	}
	return nil
}

// runObsCluster is `reachsim -cluster -arrival flash -slo 400 -flight DIR
// -detect -metrics m.csv -spans -trace t.json` at the given seed: the
// 4-node flash crowd with every cluster-side sink armed. The wiring
// mirrors the CLI's -cluster path; the traced run at seed 1, the CLI's
// seed, checks the outputs against the binary's byte for byte.
func runObsCluster(o childOpts, res *childResult) error {
	const queries, qps = 96, 8
	ccfg := config.DefaultCluster()
	ccfg.ParallelDomains = o.pj
	ccfg.RouteSeed = o.seed
	arr := experiments.ArrivalSpec{Process: experiments.ArrivalFlash, Seed: o.seed}
	objective := sim.FromSeconds(0.4)
	slo := inspect.NewSLOMonitor(sim.FromSeconds(0.25), objective)
	fr := flight.New(flight.Config{Detect: true, Window: sim.FromSeconds(1), Objective: objective})
	sloObs, frObs := qtrace.Observer(slo), qtrace.Observer(fr)
	var sloT, frT *timedObserver
	if o.traced {
		sloT, frT = &timedObserver{inner: slo}, &timedObserver{inner: fr}
		sloObs, frObs = sloT, frT
	}
	mo := metrics.Options{Spans: true}

	var (
		rec     *metrics.MultiRecorder
		rt      *runTracer
		sampleT *timedBarrier
	)
	start := time.Now()
	cl, table, err := experiments.ClusterRun(workload.DefaultModel(), ccfg, queries, qps, arr,
		qtrace.Options{Observer: qtrace.Tee(sloObs, frObs)},
		func(cl *cluster.Cluster) {
			rec = metrics.AttachMulti(cl.Multi(), mo)
			rec.Spans = cl.AttachSpans()
			cl.EnableStragglers()
			fr.AttachLog(cl.QLog())
			fr.SetLoadProvider(cl.RouterStats().LoadsInto)
			var sampler sim.BarrierObserver = rec.Sampler
			if o.traced {
				sampleT = &timedBarrier{inner: rec.Sampler}
				sampler = sampleT
			}
			bo := flight.BarrierTee(sampler, fr)
			if o.traced {
				rt = startRunTrace(cl, start, bo)
				bo = rt.rounds
			}
			cl.Multi().SetBarrierObserver(bo)
			setupDone(o)
		})
	if err != nil {
		return err
	}
	if rt != nil {
		rt.runDone()
	}
	var out bytes.Buffer
	for _, t := range []*report.Table{table, cluster.StragglerTable(cl.Stragglers()), slo.Table()} {
		if t == nil {
			continue
		}
		if err := t.Render(&out); err != nil {
			return err
		}
	}

	csvPath := filepath.Join(o.work, "m.csv")
	csvT := time.Now()
	csvBytes, err := writeFile(csvPath, func(w io.Writer) error {
		cw := metrics.NewCSVWriter(w)
		if err := cw.WriteRun("cluster", rec.Sampler); err != nil {
			return err
		}
		return cw.Flush()
	})
	if err != nil {
		return err
	}
	csvS := time.Since(csvT).Seconds()

	tracePath := filepath.Join(o.work, "t.json")
	buildT := time.Now()
	tl := trace.NewTimeline()
	tl.AddCluster(ccfg.Nodes, cl.QLog(), rec.Sampler, rec.Spans)
	buildS := time.Since(buildT).Seconds()
	writeT := time.Now()
	traceBytes, err := writeFile(tracePath, tl.WriteJSON)
	if err != nil {
		return err
	}
	writeS := time.Since(writeT).Seconds()

	bundleBytes, err := writeFlightBundle(filepath.Join(o.work, "flight"), fr, cl, ccfg.Nodes, rec)
	if err != nil {
		return err
	}
	res.OpDone = stamp()
	if err := artifactsDone(o, res, out.Bytes(), "m.csv", "t.json", "flight"); err != nil {
		return err
	}

	v := fr.Verdict()
	verdict := fmt.Sprintf("%s@%.3fms", v.Detector, v.TriggerMS)
	res.Info["verdict"] = verdict
	clusterInfo(res, cl)
	var detections uint64
	for _, n := range fr.Status().Detections {
		detections += n
	}
	if detections != 1 {
		res.fail("flight recorder made %d detections, want exactly 1", detections)
	}
	if o.seed == 1 && verdict != "slo-burn@3680.511ms" {
		res.fail("seed 1 verdict %s, pinned slo-burn@3680.511ms", verdict)
	}
	if cl.Completed() != cl.Submitted() {
		res.fail("completed %d of %d submitted queries", cl.Completed(), cl.Submitted())
	}

	if rt != nil {
		rt.finish(res, cl, queries)
		changedSamples(res, rec.Sampler)
		res.Layers["metrics.csv_bytes"] = float64(csvBytes)
		res.Layers["metrics.csv_write_s"] = csvS
		res.Layers["metrics.on_barrier_ns"] = sampleT.meanNS()
		res.Layers["trace.json_bytes"] = float64(traceBytes)
		res.Layers["trace.build_s"] = buildS
		res.Layers["trace.write_s"] = writeS
		res.Layers["flight.observe_ns"] = frT.meanNS()
		res.Layers["inspect.slo_observe_ns"] = sloT.meanNS()
		res.Layers["flight.bundle_bytes"] = float64(bundleBytes)
		res.Layers["flight.detections"] = float64(detections)
		qtraceExport(res, cl.QLog())
	}
	return nil
}

// runObsPipeline is `reachsim -trace t.json -spans -metrics m.csv`: one
// pinned 8-batch ReACH pipeline on a single server with the event-loop
// sampler, GAM spans and per-query tracing on, exported as a Chrome trace
// with counter lanes plus the time-series CSV and its bottleneck table.
// The steps mirror the CLI's -trace path. Only the traced op runs here
// (the untraced ones run the binary), and its sim_digest, a hash of the
// stdout table, CSV and trace, must equal the binary's.
func runObsPipeline(o childOpts, res *childResult) error {
	spec := experiments.PipelineSpec("pipeline", workload.DefaultModel(), experiments.ReACHMapping(), 4, 8)
	spec.Metrics = &metrics.Options{Spans: true}
	spec.QTrace = &qtrace.Options{}
	// The default job builder, called explicitly so the last build marks
	// the end of set-up: every job is built before the engine runs.
	var runStart time.Time
	spec.BuildJob = func(sys *core.System, id int) (*core.Job, error) {
		j, err := experiments.BuildPipelineJob(sys, id, spec.Model, spec.Mapping)
		if id == spec.Batches-1 {
			setupDone(o)
			runStart = time.Now()
		}
		return j, err
	}
	run, err := spec.Run()
	if err != nil {
		return err
	}
	runS := time.Since(runStart).Seconds()

	buildT := time.Now()
	tl := trace.NewTimeline()
	addErr := tl.AddJobs(run.Jobs)
	tl.AddResources(run.Sys.Engine().Stats(), run.Sys.Engine().Now())
	tl.AddQueries(run.QLog)
	tl.AddCounters(run.Obs.Sampler)
	tl.AddSpans(run.Obs.Spans)
	buildS := time.Since(buildT).Seconds()

	csvPath := filepath.Join(o.work, "m.csv")
	csvT := time.Now()
	csvBytes, err := writeFile(csvPath, func(w io.Writer) error {
		cw := metrics.NewCSVWriter(w)
		if err := cw.WriteRun("trace/"+spec.Name, run.Obs.Sampler); err != nil {
			return err
		}
		return cw.Flush()
	})
	if err != nil {
		return err
	}
	csvS := time.Since(csvT).Seconds()
	var out bytes.Buffer
	atts := metrics.Attribute(run.Obs.Sampler, run.PhaseWindows())
	if err := report.Bottleneck("Bottleneck attribution — trace/"+spec.Name, atts).Render(&out); err != nil {
		return err
	}

	tracePath := filepath.Join(o.work, "t.json")
	writeT := time.Now()
	traceBytes, err := writeFile(tracePath, tl.WriteJSON)
	if err != nil {
		return err
	}
	writeS := time.Since(writeT).Seconds()
	res.OpDone = stamp()
	if err := artifactsDone(o, res, out.Bytes(), "m.csv", "t.json"); err != nil {
		return err
	}

	eng := run.Sys.Engine()
	sk := run.QLog.Sketch()
	res.Info["sim"] = fmt.Sprintf("events=%d makespan=%d latency=%d p50=%d p99=%d samples=%d",
		eng.Executed(), run.Makespan, run.Latency, sk.Quantile(0.5), sk.Quantile(0.99), run.Obs.Sampler.Samples())
	if addErr != nil {
		res.fail("trace incomplete: %v", addErr)
	}

	if o.traced {
		res.Layers["sim.events"] = float64(eng.Executed())
		res.Layers["sim.ns_per_event"] = runS * 1e9 / float64(eng.Executed())
		changedSamples(res, run.Obs.Sampler)
		res.Layers["metrics.csv_bytes"] = float64(csvBytes)
		res.Layers["metrics.csv_write_s"] = csvS
		res.Layers["trace.json_bytes"] = float64(traceBytes)
		res.Layers["trace.build_s"] = buildS
		res.Layers["trace.write_s"] = writeS
		gcLayers(res)
		qtraceExport(res, run.QLog)
	}
	return nil
}

// clusterInfo records the simulated headline of a cluster run.
func clusterInfo(res *childResult, cl *cluster.Cluster) {
	sk := cl.QLog().Sketch()
	res.Info["p50_ms"] = fmt.Sprintf("%.3f", sk.Quantile(0.5).Milliseconds())
	res.Info["p99_ms"] = fmt.Sprintf("%.3f", sk.Quantile(0.99).Milliseconds())
	res.Info["events"] = fmt.Sprint(cl.Multi().Executed())
	res.Info["rounds"] = fmt.Sprint(cl.Multi().Rounds())
}

// writeFile creates path, lets write fill it and returns the bytes written.
func writeFile(path string, write func(io.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	if err := write(cw); err != nil {
		f.Close()
		return cw.n, fmt.Errorf("write %s: %w", path, err)
	}
	return cw.n, f.Close()
}

// changedSamples counts the samples in which any field of any resource
// differs from that resource's previous sample — the share of rows a
// change-point sampler would keep.
func changedSamples(res *childResult, s metrics.Source) {
	n := s.Samples()
	changed := make([]bool, n)
	for _, se := range s.Series() {
		for j := 0; j < se.Len(); j++ {
			i := se.Start() + j
			if j == 0 || se.At(j) != se.At(j-1) {
				changed[i] = true
			}
		}
	}
	k := 0
	for _, c := range changed {
		if c {
			k++
		}
	}
	res.Layers["metrics.samples"] = float64(n)
	if n > 0 {
		res.Layers["metrics.changed_sample_ratio"] = float64(k) / float64(n)
	}
}

// qtraceExport measures the qtrace layer's exporter on the op's query
// log: the -qtrace interval and summary CSVs, written to a byte counter
// after the op so the op's own timing is untouched.
func qtraceExport(res *childResult, l *qtrace.Log) {
	iv, sum := &countingWriter{w: io.Discard}, &countingWriter{w: io.Discard}
	t := time.Now()
	w := qtrace.NewCSVWriter(iv, sum)
	err := w.WriteRun("run", l)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		res.fail("qtrace export: %v", err)
	}
	res.Layers["qtrace.write_s"] = time.Since(t).Seconds()
	res.Layers["qtrace.bytes"] = float64(iv.n + sum.n)
}

// gcLayers reads the process's garbage-collector totals.
func gcLayers(res *childResult) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Layers["runtime.gc_cycles"] = float64(ms.NumGC)
	res.Layers["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
}
