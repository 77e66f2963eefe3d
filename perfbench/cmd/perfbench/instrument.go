package main

import (
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/qtrace"
	"repro/internal/sim"
)

// The traced run's spans come from here: timing wrappers on the public
// observer hooks and clocks around calls into each layer. Nothing in the
// program itself is instrumented.

// timedObserver times a completion observer whose work happens in
// QueryDoneAt (the SLO monitor and the flight recorder).
type timedObserver struct {
	inner interface {
		qtrace.Observer
		qtrace.ObserverAt
	}
	calls int64
	ns    int64
}

func (o *timedObserver) QueryDone(id int, latency sim.Time) {
	t := time.Now()
	o.inner.QueryDone(id, latency)
	o.ns += time.Since(t).Nanoseconds()
}

func (o *timedObserver) QueryDoneAt(id int, at, latency sim.Time) {
	t := time.Now()
	o.inner.QueryDoneAt(id, at, latency)
	o.ns += time.Since(t).Nanoseconds()
	o.calls++
}

// meanNS is the observer's host time per query completion.
func (o *timedObserver) meanNS() float64 {
	if o.calls == 0 {
		return 0
	}
	return float64(o.ns) / float64(o.calls)
}

// timedBarrier times a barrier observer (the cluster metrics sampler).
type timedBarrier struct {
	inner sim.BarrierObserver
	calls int64
	ns    int64
}

func (b *timedBarrier) OnBarrier(m *sim.MultiEngine, mailboxes []int, final bool) {
	t := time.Now()
	b.inner.OnBarrier(m, mailboxes, final)
	b.ns += time.Since(t).Nanoseconds()
	b.calls++
}

func (b *timedBarrier) meanNS() float64 {
	if b.calls == 0 {
		return 0
	}
	return float64(b.ns) / float64(b.calls)
}

// roundStats rides the MultiEngine's barrier hook (in front of any sink
// observer) and reads, at every barrier, how many events each domain ran
// in the round that just ended and how many are pending. It only reads.
type roundStats struct {
	inner sim.BarrierObserver
	last  []uint64 // per-domain executed count at the previous barrier
	// minSpan is Σ over rounds of the least time, in events, the round
	// could take on 2 workers: its busiest domain's events, or its events
	// spread evenly over the workers, whichever is larger.
	minSpan     float64
	events      uint64 // Σ over rounds of the round's events
	pendingPeak int
	start, end  time.Time // run start; last round's barrier
}

func (r *roundStats) OnBarrier(m *sim.MultiEngine, mailboxes []int, final bool) {
	if !final {
		var busiest, events uint64
		for i := range r.last {
			e := m.Domain(i).Executed()
			d := e - r.last[i]
			busiest = max(busiest, d)
			events += d
			r.last[i] = e
		}
		r.events += events
		r.minSpan += max(float64(busiest), float64(events)/workers)
		if p := m.Pending(); p > r.pendingPeak {
			r.pendingPeak = p
		}
		r.end = time.Now()
	}
	if r.inner != nil {
		r.inner.OnBarrier(m, mailboxes, final)
	}
}

// runTracer collects the engine, cluster and runtime layers of one
// traced cluster op.
type runTracer struct {
	rounds      *roundStats
	start       time.Time // ClusterRun called
	built       time.Time // cluster.New returned (the observe callback)
	base        runtime.MemStats
	forcedGC    uint32
	forcedPause uint64
	runEnd      time.Time
	atRunEnd    runtime.MemStats
}

// startRunTrace is called from ClusterRun's observe callback, which runs
// right after cluster.New and before the first event. It takes the heap
// baseline (after a forced collection) and wraps inner, the sink barrier
// observer (nil when no sink is armed), in a roundStats.
func startRunTrace(cl *cluster.Cluster, start time.Time, inner sim.BarrierObserver) *runTracer {
	rt := &runTracer{start: start, built: time.Now()}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.GC()
	runtime.ReadMemStats(&rt.base)
	rt.forcedGC = rt.base.NumGC - before.NumGC
	rt.forcedPause = rt.base.PauseTotalNs - before.PauseTotalNs
	rt.rounds = &roundStats{inner: inner, last: make([]uint64, cl.Multi().Domains()), start: time.Now()}
	return rt
}

// runDone marks the end of the simulation; call it as ClusterRun returns.
func (rt *runTracer) runDone() {
	rt.runEnd = time.Now()
	runtime.ReadMemStats(&rt.atRunEnd)
}

// finish fills the sim, cluster and runtime layers once the op is done.
func (rt *runTracer) finish(res *childResult, cl *cluster.Cluster, queries int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	res.Layers["runtime.gc_cycles"] = float64(now.NumGC - rt.forcedGC)
	res.Layers["runtime.gc_pause_ms"] = float64(now.PauseTotalNs-rt.forcedPause) / 1e6

	me := cl.Multi()
	events, rounds := float64(me.Executed()), float64(me.Rounds())
	rs := rt.rounds
	res.Layers["sim.events"] = events
	res.Layers["sim.rounds"] = rounds
	res.Layers["sim.pending_peak"] = float64(rs.pendingPeak)
	res.Layers["sim.ns_per_event"] = float64(rt.runEnd.Sub(rs.start).Nanoseconds()) / events
	if rounds > 0 {
		res.Layers["sim.events_per_round"] = events / rounds
		res.Layers["sim.round_us"] = float64(rs.end.Sub(rs.start).Microseconds()) / rounds
	}
	// The best efficiency 2 workers could reach with the rounds as they
	// are: at most 1, and 1 only when every round splits evenly. Rounds do
	// not depend on the worker count, so a ParallelDomains 1 op reads it.
	if rs.minSpan > 0 {
		res.Layers["sim.parallel_bound"] = float64(rs.events) / (workers * rs.minSpan)
	}

	q := float64(queries)
	res.Layers["cluster.new_s"] = rt.built.Sub(rt.start).Seconds()
	res.Layers["cluster.allocs_per_query"] = float64(rt.atRunEnd.Mallocs-rt.base.Mallocs) / q
	res.Layers["cluster.alloc_bytes_per_query"] = float64(rt.atRunEnd.TotalAlloc-rt.base.TotalAlloc) / q
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	res.Layers["cluster.live_bytes_per_query"] = (float64(live.HeapAlloc) - float64(rt.base.HeapAlloc)) / q
	runtime.KeepAlive(cl)
}
