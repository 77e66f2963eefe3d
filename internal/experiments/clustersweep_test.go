package experiments

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/workload"
)

// smallClusterSweep is the reduced matrix the unit tests run: 4 nodes,
// the two policies under comparison, two rates, half the queries.
func smallClusterSweep(t *testing.T, opts ...Option) *ClusterSweepResult {
	t.Helper()
	res, err := ClusterSweep(workload.DefaultModel(), config.DefaultCluster(),
		[]int{4}, []string{"hash", "p2c"}, []float64{5, 20}, 32, DefaultClusterSeed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestClusterSweepShape(t *testing.T) {
	res := smallClusterSweep(t)
	if len(res.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Completed != 32 {
			t.Fatalf("%dn %s %.0f q/s completed %d of 32", p.Nodes, p.Policy, p.OfferedQPS, p.Completed)
		}
		if p.P99 < p.P50 || p.P999 < p.P99 {
			t.Fatalf("quantiles out of order at %dn %s %.0f q/s", p.Nodes, p.Policy, p.OfferedQPS)
		}
		if len(p.NodeBusyPct) != p.Nodes || p.MeanBusyPct <= 0 {
			t.Fatalf("busy stats missing at %dn %s %.0f q/s", p.Nodes, p.Policy, p.OfferedQPS)
		}
		if p.RoutedImbalance < 1 || p.PeakQueueImbalance < 1 {
			t.Fatalf("imbalance below 1 at %dn %s %.0f q/s", p.Nodes, p.Policy, p.OfferedQPS)
		}
	}
}

// TestClusterSweepP2CBeatsHashAtPeak pins the acceptance criterion: in
// the default pinned sweep, p2c's p99 is no worse than hash's at the
// highest swept rate on the largest cluster.
func TestClusterSweepP2CBeatsHashAtPeak(t *testing.T) {
	res, err := DefaultClusterSweep(workload.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	rates := DefaultClusterRates()
	maxRate := rates[len(rates)-1]
	counts := DefaultClusterNodeCounts()
	maxNodes := counts[len(counts)-1]
	hash := res.Point(maxNodes, "hash", maxRate)
	p2c := res.Point(maxNodes, "p2c", maxRate)
	if hash == nil || p2c == nil {
		t.Fatal("pinned sweep missing hash/p2c points")
	}
	t.Logf("%d nodes at %.0f q/s: hash p99 %.1f ms, p2c p99 %.1f ms",
		maxNodes, maxRate, hash.P99.Milliseconds(), p2c.P99.Milliseconds())
	if p2c.P99 > hash.P99 {
		t.Fatalf("p2c p99 %v exceeds hash p99 %v at the highest swept rate",
			p2c.P99, hash.P99)
	}
}

// TestClusterSweepWorkerCountInvariant: the rendered table is
// byte-identical whether the sweep runs serially or on 8 workers.
func TestClusterSweepWorkerCountInvariant(t *testing.T) {
	render := func(opts ...Option) string {
		var b strings.Builder
		if err := ClusterSweepTable(smallClusterSweep(t, opts...)).Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(WithWorkers(1))
	parallel := render(WithWorkers(8))
	if serial != parallel {
		t.Fatalf("cluster sweep differs by worker count:\n-- j1 --\n%s\n-- j8 --\n%s", serial, parallel)
	}
}

// TestClusterSweepParallelDomainsInvariant: the rendered table is
// byte-identical whether each cluster simulates its domains serially or
// on 4 worker goroutines. Together with the worker-count invariant above
// this pins that neither parallelism axis (-j across cells, -pj inside a
// cell) is a modelling knob.
func TestClusterSweepParallelDomainsInvariant(t *testing.T) {
	render := func(opts ...Option) string {
		var b strings.Builder
		if err := ClusterSweepTable(smallClusterSweep(t, opts...)).Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(WithClusterParallel(1))
	parallel := render(WithClusterParallel(4))
	if serial != parallel {
		t.Fatalf("cluster sweep differs by ParallelDomains:\n-- pj1 --\n%s\n-- pj4 --\n%s", serial, parallel)
	}
}

func TestClusterSweepTableRenders(t *testing.T) {
	var b strings.Builder
	if err := ClusterSweepTable(smallClusterSweep(t)).Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Nodes", "p2c", "hash", "p99 ms", "peak-q imbal"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestClusterParallelStress runs a 64-node, 64-shard cluster with two
// domain workers on a multi-core host, where the domains' goroutines truly
// overlap: GAM stream buffers are registered lazily mid-round in the
// registry every domain shares, so an unserialised Register let two
// domains write its map at once and killed the process. Each seed's
// summary must also equal the serial run's.
func TestClusterParallelStress(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skipf("needs 2 CPUs for domain workers to overlap, host has %d", runtime.NumCPU())
	}
	const queries, qps = 256, 100
	summary := func(pj int, seed int64) string {
		ccfg := config.DefaultCluster()
		ccfg.Nodes, ccfg.Shards, ccfg.ShardMap = 64, 64, nil
		ccfg.ParallelDomains = pj
		arr := ArrivalSpec{Process: ArrivalPoisson, Seed: seed}
		_, tb, err := ClusterRun(workload.DefaultModel(), ccfg, queries, qps, arr, qtrace.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := tb.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for seed := int64(1); seed <= 4; seed++ {
		serial, parallel := summary(1, seed), summary(2, seed)
		if parallel != serial {
			t.Fatalf("seed %d: -pj 2 summary diverged from -pj 1:\n%s\nwant:\n%s", seed, parallel, serial)
		}
	}
}
