// Package experiments builds and runs the paper's evaluation (Section VI):
// one entry point per table and figure, each returning both structured
// results and a rendered table. The benchmark harness (bench_test.go) and
// the reachsim CLI are thin wrappers over this package.
package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Stage labels used for energy attribution — the three online CBIR stages
// of Fig. 7.
const (
	StageFE = "FeatureExtraction"
	StageSL = "ShortlistRetrieval"
	StageRR = "Rerank"
)

// Stages lists the pipeline stages in order.
func Stages() []string { return []string{StageFE, StageSL, StageRR} }

// Mapping assigns each pipeline stage to a compute level.
type Mapping struct {
	FE, SL, RR accel.Level
}

// ReACHMapping is the paper's optimized deployment (§IV-B, Fig. 7):
// feature extraction on chip, shortlist retrieval near memory, rerank near
// storage.
func ReACHMapping() Mapping {
	return Mapping{FE: accel.OnChip, SL: accel.NearMemory, RR: accel.NearStorage}
}

// SingleLevel maps every stage to one level (the §VI-C baselines).
func SingleLevel(l accel.Level) Mapping { return Mapping{FE: l, SL: l, RR: l} }

// configFor sizes the accelerator population for a mapping: one on-chip
// instance when used, n near-memory/near-storage instances when used.
func configFor(m Mapping, n int) config.SystemConfig {
	onChip, nm, ns := 0, 0, 0
	for _, l := range []accel.Level{m.FE, m.SL, m.RR} {
		switch l {
		case accel.OnChip:
			onChip = 1
		case accel.NearMemory:
			nm = n
		case accel.NearStorage:
			ns = n
		}
	}
	return config.Default().WithInstances(onChip, nm, ns)
}

// kernelFor picks the Table III template for a stage at a level.
func kernelFor(stage string, l accel.Level) string {
	suffix := "-ZCU9"
	if l == accel.OnChip {
		suffix = "-VU9P"
	}
	switch stage {
	case StageFE:
		return "CNN" + suffix
	case StageSL:
		return "GEMM" + suffix
	default:
		return "KNN" + suffix
	}
}

// addStage appends one stage's task group to a job, depending on `deps`,
// and returns the new nodes. Task decomposition follows §VI-B/§VI-C: the
// on-chip accelerator runs batched single tasks; near-data levels split
// the stage across instances (and feature extraction runs one image per
// task with duplicated parameters).
func addStage(sys *core.System, j *core.Job, stage string, l accel.Level, m workload.Model, deps []*core.TaskNode) ([]*core.TaskNode, error) {
	reg := sys.Registry()
	kName := kernelFor(stage, l)
	kernel, err := reg.Lookup(kName)
	if err != nil {
		return nil, err
	}
	n := sys.InstanceCount(l)
	if n == 0 {
		return nil, fmt.Errorf("experiments: mapping stage %s to empty level %v", stage, l)
	}
	var nodes []*core.TaskNode

	switch stage {
	case StageFE:
		if l == accel.OnChip {
			// One batched task; compressed parameters resident in SRAM.
			node := j.AddTask(accel.Task{
				Name: "fe", Stage: stage, Kernel: kernel,
				MACs: m.FeatureMACsPerBatch(), Source: accel.SourceSPM,
			}, l, deps...)
			node.OutBytes = m.BatchFeatureBytes()
			nodes = append(nodes, node)
			break
		}
		// Near-data: one image per task, duplicated (compressed)
		// parameters per instance (§VI-B "single image per task").
		src := accel.SourceLocalDIMM
		if l == accel.NearStorage {
			src = accel.SourceDeviceDRAM
		}
		for i := 0; i < m.BatchSize; i++ {
			node := j.AddTask(accel.Task{
				Name: fmt.Sprintf("fe%d", i), Stage: stage, Kernel: kernel,
				MACs:   m.FeatureMACsPerImage(),
				Bytes:  m.CNN.CompressedParamBytes() + m.ImageBytes(),
				Source: src,
			}, l, deps...)
			node.OutBytes = m.VectorBytes()
			nodes = append(nodes, node)
		}

	case StageSL:
		switch l {
		case accel.OnChip:
			node := j.AddTask(accel.Task{
				Name: "sl", Stage: stage, Kernel: kernel,
				MACs: m.ShortlistMACsPerBatch(), Bytes: m.ShortlistScanBytesPerBatch(),
				Source: accel.SourceHostDRAM,
			}, l, deps...)
			node.OutBytes = m.ShortlistResultBytesPerBatch()
			nodes = append(nodes, node)
		default:
			src := accel.SourceLocalDIMM
			if l == accel.NearStorage {
				src = accel.SourceSSD
			}
			for i := 0; i < n; i++ {
				node := j.AddTask(accel.Task{
					Name: fmt.Sprintf("sl%d", i), Stage: stage, Kernel: kernel,
					MACs:   m.ShortlistMACsPerBatch() / float64(n),
					Bytes:  m.ShortlistScanBytesPerBatch() / int64(n),
					Source: src, Pattern: storage.Sequential,
				}, l, deps...)
				node.Pin = i
				node.OutBytes = m.ShortlistResultBytesPerBatch() / int64(n)
				nodes = append(nodes, node)
			}
		}

	case StageRR:
		// The rerank scan is storage-resident everywhere; the level only
		// changes which interface the bytes cross.
		for i := 0; i < n; i++ {
			count := n
			if l == accel.OnChip {
				count = 1
			}
			node := j.AddTask(accel.Task{
				Name: fmt.Sprintf("rr%d", i), Stage: stage, Kernel: kernel,
				MACs:   m.RerankMACsPerBatch() / float64(count),
				Bytes:  m.RerankScanBytesPerBatch() / int64(count),
				Source: accel.SourceSSD, Pattern: storage.RandomPages,
			}, l, deps...)
			if l != accel.OnChip {
				node.Pin = i
			}
			node.OutBytes = m.ResultBytesPerBatch() / int64(count)
			node.SinkToHost = true
			nodes = append(nodes, node)
			if l == accel.OnChip {
				break
			}
		}
	default:
		return nil, fmt.Errorf("experiments: unknown stage %q", stage)
	}
	return nodes, nil
}

// BuildPipelineJob constructs one batch's job under a mapping.
func BuildPipelineJob(sys *core.System, id int, m workload.Model, mp Mapping) (*core.Job, error) {
	j := core.NewJob(id)
	fe, err := addStage(sys, j, StageFE, mp.FE, m, nil)
	if err != nil {
		return nil, err
	}
	sl, err := addStage(sys, j, StageSL, mp.SL, m, fe)
	if err != nil {
		return nil, err
	}
	if _, err := addStage(sys, j, StageRR, mp.RR, m, sl); err != nil {
		return nil, err
	}
	return j, nil
}

// RunResult is the outcome of a pipeline run.
type RunResult struct {
	Sys     *core.System
	Batches int
	// Makespan is first-submit to last-finish.
	Makespan sim.Time
	// Latency is the first batch's submit-to-finish time.
	Latency sim.Time
	// StageSpan is, for the first batch, each stage's earliest-dispatch to
	// latest-completion window.
	StageSpan map[string]sim.Time
	// Jobs holds the completed jobs in submission order.
	Jobs []*core.Job
	// Obs is the run's observability recorder — nil unless the spec set
	// Metrics (see RunSpec.Metrics).
	Obs *metrics.Recorder
	// QLog is the run's per-query trace log — nil unless the spec set
	// QTrace (see RunSpec.QTrace).
	QLog *qtrace.Log
}

// PhaseWindows reduces the run to attribution phases: one window per
// pipeline stage (earliest dispatch to latest GAM detection across every
// job, first-seen stage order) plus a closing "run" window covering
// first-submit to last-finish. Empty before the run completes.
func (r *RunResult) PhaseWindows() []metrics.PhaseWindow {
	type span struct{ lo, hi sim.Time }
	byStage := map[string]*span{}
	var order []string
	for _, j := range r.Jobs {
		for _, n := range j.Nodes {
			st := n.Spec.Stage
			sp, ok := byStage[st]
			if !ok {
				byStage[st] = &span{lo: n.DispatchedAt, hi: n.DetectedAt}
				order = append(order, st)
				continue
			}
			if n.DispatchedAt < sp.lo {
				sp.lo = n.DispatchedAt
			}
			if n.DetectedAt > sp.hi {
				sp.hi = n.DetectedAt
			}
		}
	}
	out := make([]metrics.PhaseWindow, 0, len(order)+1)
	for _, st := range order {
		sp := byStage[st]
		out = append(out, metrics.PhaseWindow{Name: st, Start: sp.lo, End: sp.hi})
	}
	if len(r.Jobs) > 0 {
		out = append(out, metrics.PhaseWindow{
			Name:  "run",
			Start: r.Jobs[0].SubmittedAt,
			End:   r.Jobs[0].SubmittedAt + r.Makespan,
		})
	}
	return out
}

// ThroughputBatchesPerSec reports steady-state throughput.
func (r *RunResult) ThroughputBatchesPerSec() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Batches) / r.Makespan.Seconds()
}

// EnergyPerBatch reports joules per batch for one component, excluding the
// one-time Setup stage.
func (r *RunResult) EnergyPerBatch(c energy.Component) float64 {
	m := r.Sys.Meter()
	total := m.Component(c) - m.ComponentStage(c, "Setup")
	return total / float64(r.Batches)
}

// TotalEnergyPerBatch reports joules per batch across components.
func (r *RunResult) TotalEnergyPerBatch() float64 {
	var sum float64
	for _, c := range energy.Components() {
		sum += r.EnergyPerBatch(c)
	}
	return sum
}

// PipelineSpec declares the standard end-to-end pipeline run: `batches`
// consecutive batch jobs of workload m under mapping mp on a system with n
// near-data instances per used level, background power attributed per
// stage busy span.
func PipelineSpec(name string, m workload.Model, mp Mapping, n, batches int) RunSpec {
	return RunSpec{
		Name:       name,
		Model:      m,
		Mapping:    mp,
		Instances:  n,
		Batches:    batches,
		Background: BackgroundStageSpan,
	}
}

// RunPipeline runs the standard pipeline spec synchronously (the
// single-run convenience under the CLI's -stats/-trace paths and the
// functional tests; sweeps go through RunSpecs instead).
func RunPipeline(m workload.Model, mp Mapping, n, batches int) (*RunResult, error) {
	return PipelineSpec("pipeline", m, mp, n, batches).Run()
}
