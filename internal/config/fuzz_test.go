package config

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// The fuzz targets decode arbitrary JSON over the defaults and hold
// Validate to three properties: it never panics, every config it accepts
// is one the simulator can build (usableSystem, usableCluster), and an
// accepted config survives a save/load round trip unchanged. `go test`
// runs the seeds; `go test -fuzz FuzzValidate ./internal/config` explores.

// linkRate reports whether the simulator's link constructor accepts a
// GB/s figure as a bandwidth.
func linkRate(gbps float64) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	sim.NewLink(sim.NewEngine(), "fuzz", gbps*GBps, 0)
	return true
}

// usableSystem returns why the simulator could not use c, or nil. It
// restates what the models need, independently of Validate's wording.
func usableSystem(c *SystemConfig) error {
	for name, gbps := range map[string]float64{
		"memory.channel_gbps":        c.Memory.ChannelGBps,
		"memory.near_mem_gbps":       c.Memory.NearMemGBps,
		"memory.aimbus_gbps":         c.Memory.AIMBusGBps,
		"storage.host_pcie_raw_gbps": c.Storage.HostPCIeRawGBps,
		"storage.device_gbps":        c.Storage.DeviceGBps,
		"on_chip.noc_gbps":           c.OnChip.NoCGBps,
	} {
		if !linkRate(gbps) {
			return fmt.Errorf("%s = %v is not a link bandwidth", name, gbps)
		}
	}
	if r := c.Storage.HostPCIeGBps / c.Storage.HostPCIeRawGBps; !(r > 0 && r <= 1) {
		return fmt.Errorf("host PCIe efficiency %v outside (0,1]", r)
	}
	for name, f := range map[string]float64{
		"memory.stream_efficiency":       c.Memory.StreamEfficieny,
		"memory.random_efficiency":       c.Memory.RandomEfficieny,
		"storage.host_gather_eff":        c.Storage.HostGatherEff,
		"on_chip.cache_pollution_factor": c.OnChip.CachePollutionFactor,
	} {
		if !(f > 0 && f <= 1) {
			return fmt.Errorf("%s = %v outside (0,1]", name, f)
		}
	}
	if r := c.OnChip.TLBMissRate; !(r >= 0 && r <= 1) {
		return fmt.Errorf("on_chip.tlb_miss_rate = %v outside [0,1]", r)
	}
	for name, v := range map[string]float64{
		"storage.read_latency_us":     c.Storage.ReadLatencyUS,
		"on_chip.tlb_miss_latency_ns": c.OnChip.TLBMissLatencyNS,
		"gam.command_latency_ns":      c.GAM.CommandLatencyNS,
		"gam.status_slack_fraction":   c.GAM.StatusSlackFraction,
	} {
		if !(v >= 0) {
			return fmt.Errorf("%s = %v is negative", name, v)
		}
	}
	if !(c.CPU.FreqMHz > 0) || !(c.Storage.RandomIOPS > 0) {
		return fmt.Errorf("non-positive cpu frequency or storage IOPS")
	}
	if c.CPU.SharedL2 <= 0 || c.CPU.L2Assoc <= 0 || c.CPU.L2LineBytes <= 0 ||
		c.CPU.L2LineBytes&(c.CPU.L2LineBytes-1) != 0 {
		return fmt.Errorf("unusable LLC geometry")
	}
	if c.Memory.Controllers <= 0 || c.Memory.HostDIMMs <= 0 || c.Memory.NearMemDIMMs < 0 ||
		c.Storage.SSDs <= 0 || c.Storage.PageBytes <= 0 || c.Storage.GatherGrainBytes <= 0 ||
		c.GAM.StreamDepth < 1 {
		return fmt.Errorf("non-positive device count or size")
	}
	in := c.Instances
	if in.OnChip < 0 || in.NearMemory < 0 || in.NearStorage < 0 || in.OnChip+in.NearMemory+in.NearStorage == 0 {
		return fmt.Errorf("instances %+v", in)
	}
	return nil
}

// usableCluster returns why the cluster layer could not use c, or nil.
func usableCluster(c *ClusterConfig) error {
	if c.Nodes < 1 || c.Shards < 1 {
		return fmt.Errorf("%d nodes, %d shards", c.Nodes, c.Shards)
	}
	shards := []int{0, c.Shards - 1}
	if c.ShardMap == nil && min(c.Replication, c.Nodes) > 1024 {
		// Too many replicas to list without exhausting memory; the derived
		// placement (s+k) mod Nodes, k < Replication, is distinct iff
		// Replication <= Nodes.
		if c.Replication > c.Nodes {
			return fmt.Errorf("replication %d over %d nodes", c.Replication, c.Nodes)
		}
		shards = nil
	}
	if c.ShardMap != nil {
		shards = shards[:0]
		for s := range c.ShardMap {
			shards = append(shards, s)
		}
	}
	for _, s := range shards {
		replicas := c.ReplicaNodes(s)
		if len(replicas) == 0 {
			return fmt.Errorf("shard %d has no replica", s)
		}
		seen := map[int]bool{}
		for _, n := range replicas {
			if n < 0 || n >= c.Nodes || seen[n] {
				return fmt.Errorf("shard %d replicas %v", s, replicas)
			}
			seen[n] = true
		}
	}
	if !linkRate(c.NetGBps) {
		return fmt.Errorf("net_gbps = %v is not a link bandwidth", c.NetGBps)
	}
	// The wire latency is the lookahead of the parallel event domains: it
	// must be at least one simulator tick.
	if sim.FromSeconds(c.NetLatencyUS*1e-6) <= 0 {
		return fmt.Errorf("net_latency_us = %v is under one tick", c.NetLatencyUS)
	}
	known := false
	for _, p := range RoutePolicies() {
		known = known || p == c.RoutePolicy
	}
	if !known {
		return fmt.Errorf("route_policy %q", c.RoutePolicy)
	}
	if !(c.SkewExponent >= 0) || c.ContentItems < 1 || c.CacheEntries < 0 || c.ParallelDomains < 0 ||
		!(c.CacheHitUS >= 0) || !(c.CoalesceUS >= 0) || (c.CacheEntries > 0 && !(c.CacheTTLMS > 0)) {
		return fmt.Errorf("negative or empty routing/cache setting")
	}
	return usableSystem(&c.Node)
}

func FuzzValidate(f *testing.F) {
	seed, err := json.Marshal(Default())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"memory":{"channel_gbps":1e300}}`))
	f.Add([]byte(`{"storage":{"read_latency_us":-1}}`))
	f.Add([]byte(`{"on_chip":{"tlb_miss_rate":2}}`))
	f.Add([]byte(`{"instances":{"on_chip":0,"near_memory":0,"near_storage":0}}`))
	path := filepath.Join(f.TempDir(), "system.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		c := Default()
		if json.Unmarshal(data, &c) != nil {
			return
		}
		if c.Validate() != nil {
			return
		}
		if err := usableSystem(&c); err != nil {
			t.Fatalf("Validate accepted an unusable config: %v", err)
		}
		if err := c.Save(path); err != nil {
			t.Fatal(err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("reloading a valid config: %v", err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, c)
		}
	})
}

func FuzzLoadCluster(f *testing.F) {
	for _, mutate := range []func(*ClusterConfig){
		func(*ClusterConfig) {},
		func(c *ClusterConfig) { c.Shards, c.ShardMap = 2, [][]int{{0, 1}, {3}} },
		func(c *ClusterConfig) { c.NetGBps = 1e300 },
		func(c *ClusterConfig) { c.NetLatencyUS = 1e-9 },
		func(c *ClusterConfig) { c.Replication = 5 },
		func(c *ClusterConfig) { c.CacheEntries, c.CacheTTLMS = 8, 0 },
	} {
		c := DefaultCluster()
		mutate(&c)
		seed, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadCluster(in)
		if err != nil {
			return
		}
		if err := usableCluster(&c); err != nil {
			t.Fatalf("LoadCluster accepted an unusable config: %v", err)
		}
		if err := c.SaveCluster(out); err != nil {
			t.Fatal(err)
		}
		back, err := LoadCluster(out)
		if err != nil {
			t.Fatalf("reloading a valid config: %v", err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, c)
		}
	})
}
