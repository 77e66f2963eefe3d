package cluster

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/qtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testModel() workload.Model {
	m := workload.DefaultModel()
	m.DatasetSize = m.DatasetSize / 100 // keep unit runs fast
	return m
}

// buildAndRun submits n queries at a fixed inter-arrival gap and runs the
// cluster to completion.
func buildAndRun(t *testing.T, cfg config.ClusterConfig, n int, gap sim.Time) *Cluster {
	t.Helper()
	c, err := New(cfg, testModel(), qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.SubmitAt(sim.Time(i) * gap)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterScatterGatherCompletes(t *testing.T) {
	c := buildAndRun(t, config.DefaultCluster(), 8, sim.FromSeconds(1e-3))
	if c.Completed() != 8 {
		t.Fatalf("completed %d of 8 queries", c.Completed())
	}
	sk := c.QLog().Sketch()
	if sk.Count() != 8 {
		t.Fatalf("sketch holds %d samples, want 8", sk.Count())
	}
	if sk.Quantile(0.99) < sk.Quantile(0.50) {
		t.Fatal("p99 below p50")
	}
	// Work landed on more than one node.
	busy := 0
	for i := range c.Nodes() {
		if c.NodeBusyPct(i) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d nodes saw work in a 4-node scatter-gather", busy)
	}
}

// TestClusterDeterministic pins the tentpole's determinism bar: two
// identical runs produce byte-identical node snapshots and identical
// latency sketches.
func TestClusterDeterministic(t *testing.T) {
	snap := func() (string, string) {
		c := buildAndRun(t, config.DefaultCluster(), 12, sim.FromSeconds(5e-4))
		var b bytes.Buffer
		for _, n := range c.Nodes() {
			if err := n.WriteSnapshot(&b); err != nil {
				t.Fatal(err)
			}
		}
		sk := c.QLog().Sketch()
		lat := sk.Quantile(0.5).String() + "/" + sk.Quantile(0.99).String()
		return b.String(), lat
	}
	s1, l1 := snap()
	s2, l2 := snap()
	if s1 != s2 {
		t.Fatal("identical cluster runs produced different node snapshots")
	}
	if l1 != l2 {
		t.Fatalf("identical cluster runs produced different latencies: %s vs %s", l1, l2)
	}
}

// TestClusterNodePrefixes checks the shared registry keeps node resources
// disjoint, and that each node's snapshot covers only its own prefix.
func TestClusterNodePrefixes(t *testing.T) {
	c, err := New(config.DefaultCluster(), testModel(), qtrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	c.Engine().Stats().Walk(func(name string, _ sim.Resource) { names[name] = true })
	for _, want := range []string{"node0.mem.host", "node3.mem.host", "cluster.net.node0.in", "cluster.net.node3.out"} {
		if !names[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
	for _, e := range c.Nodes()[1].Snapshot() {
		if strings.HasPrefix(e.Name, "node1.") || !strings.Contains(e.Name, ".") {
			continue
		}
		if strings.HasPrefix(e.Name, "node") || strings.HasPrefix(e.Name, "cluster.") {
			t.Fatalf("node1 snapshot leaked foreign resource %q", e.Name)
		}
	}
}

// TestClusterShardMapPinning: an explicit single-replica shard map routes
// every shard job to its one assigned node.
func TestClusterShardMapPinning(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.Shards = 1
	cfg.ShardMap = [][]int{{2}}
	c := buildAndRun(t, cfg, 6, sim.FromSeconds(1e-3))
	routed := c.RouterStats().Routed()
	// 6 home picks spread anywhere, 6 shard picks all on node 2.
	if routed[2] < 6 {
		t.Fatalf("node 2 routed %d requests, want >= 6 (all shard jobs)", routed[2])
	}
	var total uint64
	for _, r := range routed {
		total += r
	}
	if total != 12 {
		t.Fatalf("total routed %d, want 12 (6 home + 6 shard)", total)
	}
}

// completionCopies deep-copies each query out of the log at the instant
// it completes, so a test can compare the live log against it later.
type completionCopies struct {
	log  *qtrace.Log
	done map[int]qtrace.Query
}

func (o *completionCopies) QueryDone(int, sim.Time) {}

func (o *completionCopies) QueryDoneAt(id int, _, _ sim.Time) {
	q := *o.log.Query(id)
	q.Intervals = slices.Clone(q.Intervals)
	q.Attribution = slices.Clone(q.Attribution)
	o.done[id] = q
}

// TestClusterQueryFinalAtCompletion: no query's timeline, attribution or
// completion time changes after Log.Completed — the property that lets
// the flight recorder cut its window from the live log after the run.
// The cached run covers cache-hit and coalesced completions as well as
// scattered merges.
func TestClusterQueryFinalAtCompletion(t *testing.T) {
	cached := config.DefaultCluster()
	cached.CacheEntries = 32
	for _, tc := range []struct {
		name string
		cfg  config.ClusterConfig
	}{{"default", config.DefaultCluster()}, {"cache32", cached}} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 128
			obs := &completionCopies{done: map[int]qtrace.Query{}}
			c, err := New(tc.cfg, testModel(), qtrace.Options{Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			obs.log = c.QLog()
			for i := 0; i < n; i++ {
				c.SubmitAt(sim.Time(i) * 2 * sim.Millisecond)
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if len(obs.done) != n {
				t.Fatalf("observed %d completions, want %d", len(obs.done), n)
			}
			if c.CacheEnabled() {
				if st := c.CacheStats(); st.Hits == 0 || st.Coalesced == 0 {
					t.Fatalf("cache stats %+v: want both hits and coalesced queries", st)
				}
			}
			for id, want := range obs.done {
				if got := *c.QLog().Query(id); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d changed after completion:\n got %+v\nwant %+v", id, got, want)
				}
			}
		})
	}
}

// TestClusterSingleNode: the degenerate 1-node, 1-shard cluster still
// works — everything co-located, no network hops.
func TestClusterSingleNode(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.Nodes, cfg.Shards, cfg.Replication = 1, 1, 1
	c := buildAndRun(t, cfg, 4, sim.FromSeconds(1e-3))
	if c.Completed() != 4 {
		t.Fatalf("completed %d of 4", c.Completed())
	}
}

func TestClusterRejectsInvalidConfig(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.RoutePolicy = "sticky"
	if _, err := New(cfg, testModel(), qtrace.Options{}); err == nil {
		t.Fatal("New accepted invalid route policy")
	}
}
