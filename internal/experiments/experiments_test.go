package experiments

import (
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/workload"
)

// The tests in this file assert the *shapes* of the paper's results: who
// wins, by roughly what factor, and where the crossovers fall. Absolute
// numbers are this simulator's, not PARADE's.

func TestFig8EnergyDistribution(t *testing.T) {
	r, err := Fig8(workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~79 % of total energy is data movement.
	if r.MovementShare < 0.70 || r.MovementShare > 0.88 {
		t.Errorf("movement share = %.2f, paper says ~0.79", r.MovementShare)
	}
	// Paper: rerank data movement alone is ~52 % of the total.
	rr := r.StageMovement[StageRR]
	if rr < 0.42 || rr > 0.62 {
		t.Errorf("rerank movement share = %.2f, paper says ~0.52", rr)
	}
	// Rerank movement dominates every other cell.
	for _, st := range Stages() {
		if st != StageRR && r.StageMovement[st] >= rr {
			t.Errorf("%s movement (%.2f) >= rerank movement (%.2f)", st, r.StageMovement[st], rr)
		}
		if r.StageCompute[st] >= rr {
			t.Errorf("%s compute (%.2f) >= rerank movement (%.2f)", st, r.StageCompute[st], rr)
		}
	}
	// Every component appears in the table.
	for _, c := range energy.Components() {
		var sum float64
		for _, st := range Stages() {
			sum += r.ComponentStage[c][st]
		}
		if sum <= 0 {
			t.Errorf("component %v has zero energy in the on-chip run", c)
		}
	}
}

func TestFig9FeatureExtractionShapes(t *testing.T) {
	s, err := Fig9(workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	// Single embedded instance is 7-10x slower than on-chip (§VI-B).
	r1 := s.NormRuntime(accel.NearMemory, 1)
	if r1 < 6.5 || r1 > 11 {
		t.Errorf("NM(1) runtime = %.2fx, paper says 7-10x", r1)
	}
	// Collective performance surpasses on-chip at 8-16 instances.
	if s.NormRuntime(accel.NearMemory, 16) >= 1 {
		t.Errorf("NM(16) runtime = %.2fx, should beat on-chip", s.NormRuntime(accel.NearMemory, 16))
	}
	if s.NormRuntime(accel.NearMemory, 8) >= s.NormRuntime(accel.NearMemory, 4) {
		t.Error("FE runtime not improving with instances")
	}
	// Near-storage tracks near-memory closely (same fabric, params in the
	// device buffer).
	nsr := s.NormRuntime(accel.NearStorage, 1)
	if nsr < r1*0.9 || nsr > r1*1.4 {
		t.Errorf("NS(1) = %.2fx vs NM(1) = %.2fx; should be similar or slightly worse", nsr, r1)
	}
	// On-chip keeps the best energy (paper: "on-chip accelerator has the
	// best overall energy").
	for _, n := range SweepCounts() {
		if e := s.NormEnergy(accel.NearMemory, n); e <= 1 {
			t.Errorf("NM(%d) FE energy = %.2fx, on-chip should win", n, e)
		}
		if e := s.NormEnergy(accel.NearStorage, n); e <= 1 {
			t.Errorf("NS(%d) FE energy = %.2fx, on-chip should win", n, e)
		}
	}
}

func TestFig10ShortlistShapes(t *testing.T) {
	s, err := Fig10(workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	// One NM instance is slower than on-chip; two or more win (§VI-B).
	if r := s.NormRuntime(accel.NearMemory, 1); r <= 1 {
		t.Errorf("NM(1) SL runtime = %.2fx, should be > 1", r)
	}
	if r := s.NormRuntime(accel.NearMemory, 2); r >= 1 {
		t.Errorf("NM(2) SL runtime = %.2fx, paper: 2+ instances beat on-chip", r)
	}
	// 40-60 % energy reduction for near-memory.
	e4 := s.NormEnergy(accel.NearMemory, 4)
	if e4 < 0.35 || e4 > 0.70 {
		t.Errorf("NM(4) SL energy = %.2fx, paper: 40-60%% reduction", e4)
	}
	// Near-storage is slightly slower than near-memory at equal counts
	// (SSD latency/bandwidth vs DIMM).
	for _, n := range SweepCounts() {
		nm := s.NormRuntime(accel.NearMemory, n)
		ns := s.NormRuntime(accel.NearStorage, n)
		if ns < nm {
			t.Errorf("NS(%d) SL (%.2f) faster than NM(%d) (%.2f); DIMMs should win", n, ns, n, nm)
		}
	}
}

func TestFig11RerankShapes(t *testing.T) {
	s, err := Fig11(workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	// Near-memory speedup saturates at the host IO interface: beyond the
	// plateau, adding instances buys <10 %.
	nm8 := s.NormRuntime(accel.NearMemory, 8)
	nm16 := s.NormRuntime(accel.NearMemory, 16)
	if improvement := (nm8 - nm16) / nm8; improvement > 0.10 {
		t.Errorf("NM 8→16 improved %.0f%%; paper shows a plateau", improvement*100)
	}
	if nm16 > 1.0 {
		t.Errorf("NM(16) rerank = %.2fx, should still beat on-chip at the plateau", nm16)
	}
	// Near-storage keeps scaling with the SSD count.
	ns1 := s.NormRuntime(accel.NearStorage, 1)
	ns16 := s.NormRuntime(accel.NearStorage, 16)
	if ratio := ns1 / ns16; ratio < 8 {
		t.Errorf("NS 1→16 speedup = %.1fx, should be near-linear (>8x)", ratio)
	}
	if ns16 > 0.2 {
		t.Errorf("NS(16) rerank = %.2fx, paper shows ~0.1x", ns16)
	}
	// Rerank saves up to ~60 % energy moving to near-storage (§VI-B).
	eNS := s.NormEnergy(accel.NearStorage, 4)
	if eNS < 0.30 || eNS > 0.70 {
		t.Errorf("NS(4) rerank energy = %.2fx, paper: up to 60%% saving", eNS)
	}
	// Near-memory rerank saves less than near-storage (data still crosses
	// the host interface).
	if eNM := s.NormEnergy(accel.NearMemory, 4); eNM <= eNS {
		t.Errorf("NM(4) rerank energy (%.2f) <= NS(4) (%.2f); NS should win", eNM, eNS)
	}
}

func TestFig12SingleLevelShapes(t *testing.T) {
	r, err := Fig12(workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]*Fig12Cell{}
	for _, c := range r.Cells {
		byKey[c.Level.String()+string(rune('0'+c.Instances))] = c
	}
	base := r.Baseline
	// At one instance, on-chip wins on runtime (§VI-C).
	nm1 := byKey["NearMem1"]
	ns1 := byKey["NearStor1"]
	if nm1.Runtime <= base.Runtime || ns1.Runtime <= base.Runtime {
		t.Errorf("single near-data instance beat on-chip: NM %v, NS %v, base %v",
			nm1.Runtime, ns1.Runtime, base.Runtime)
	}
	// At four instances, both near levels win on runtime and energy.
	nm4 := byKey["NearMem4"]
	ns4 := byKey["NearStor4"]
	if nm4.Runtime >= base.Runtime {
		t.Errorf("NM(4) end-to-end %.1f ms >= on-chip %.1f ms", nm4.Runtime.Milliseconds(), base.Runtime.Milliseconds())
	}
	if ns4.Runtime >= base.Runtime {
		t.Errorf("NS(4) end-to-end %.1f ms >= on-chip %.1f ms", ns4.Runtime.Milliseconds(), base.Runtime.Milliseconds())
	}
	if nm4.EnergyJ >= base.EnergyJ || ns4.EnergyJ >= base.EnergyJ {
		t.Errorf("4-instance near-data energy (NM %.1f, NS %.1f) not below on-chip (%.1f)",
			nm4.EnergyJ, ns4.EnergyJ, base.EnergyJ)
	}
	// Scaling monotonicity within each level.
	if byKey["NearMem2"].Runtime >= nm1.Runtime || nm4.Runtime >= byKey["NearMem2"].Runtime {
		t.Error("NM end-to-end runtime not monotone in instances")
	}
}

func TestFig13Headline(t *testing.T) {
	r, err := Fig13(workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	i := r.ReACH()
	// Paper: 4.5x throughput, 2.2x latency, 52 % energy reduction.
	tput := r.ThroughputGain(i)
	if tput < 3.6 || tput > 5.5 {
		t.Errorf("ReACH throughput gain = %.2fx, paper says 4.5x", tput)
	}
	lat := r.LatencyGain(i)
	if lat < 1.7 || lat > 2.7 {
		t.Errorf("ReACH latency gain = %.2fx, paper says 2.2x", lat)
	}
	er := r.EnergyReduction(i)
	if er < 0.40 || er > 0.65 {
		t.Errorf("ReACH energy reduction = %.0f%%, paper says 52%%", er*100)
	}
	// ReACH beats every single-level option on throughput.
	for j := range r.Cells {
		if j != i && r.ThroughputGain(j) >= tput {
			t.Errorf("option %s throughput (%.2fx) >= ReACH (%.2fx)",
				r.Cells[j].Option.Name, r.ThroughputGain(j), tput)
		}
	}
}

// TestTablesRender renders the four static tables through the registry.
func TestTablesRender(t *testing.T) {
	var sb strings.Builder
	for _, id := range []string{"table1", "table2", "table3", "table4"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		tables, err := e.Run(config.Default(), workload.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			if err := tb.Render(&sb); err != nil {
				t.Errorf("%s render: %v", id, err)
			}
		}
	}
	out := sb.String()
	for _, want := range []string{"553 MB", "FR-FCFS", "273 MHz", "CACTI", "12 GB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q", want)
		}
	}
}

func TestRunStageErrors(t *testing.T) {
	m := workload.DefaultModel()
	if _, err := RunStage(StageFE, accel.CPU, 1, m); err == nil {
		t.Error("stage on CPU accepted")
	}
	if _, err := RunStage("bogus", accel.OnChip, 1, m); err == nil {
		t.Error("unknown stage accepted")
	}
	bad := m
	bad.BatchSize = 0
	if _, err := RunPipeline(bad, ReACHMapping(), 4, 1); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := RunPipeline(m, ReACHMapping(), 4, 0); err == nil {
		t.Error("zero batches accepted")
	}
}
