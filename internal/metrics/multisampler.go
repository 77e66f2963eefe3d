package metrics

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// MultiSampler is the cluster-scale counterpart of Sampler: a barrier-
// driven sampler over a sim.MultiEngine. It never schedules events — a
// sampler tick in any domain calendar would change the barrier round
// structure, which is part of the deterministic output — and instead
// implements sim.BarrierObserver: the coordinator invokes it between
// rounds, when every domain is quiescent, and it records a sample
// whenever the cluster frontier has advanced at least one interval since
// the previous sample (plus a closing sample when the run drains).
//
// Each sample instant appends, with the frontier time as the shared
// axis:
//
//   - one Point per resource in the shared StatsRegistry — per-node GAM
//     queues, accelerator links and memories (names prefixed "nodeN."),
//     the cluster ingress/egress cross links and the front-end result
//     cache — exactly as the single-engine Sampler would;
//   - one synthetic per-domain series "sim.domainN" (kind "domain"),
//     the domain's own stream driven off its own clock: Busy is the
//     domain clock, Wait its lag behind the frontier, Occupancy the
//     calendar population, Stalls the inbound mailbox depth at the
//     barrier, Ops the cumulative events executed.
//
// Because barriers are worker-independent, the recorded samples are
// byte-identical at any SetWorkers width; and because appends reuse the
// chunked columns and the registry walk is cached, the steady state is
// allocation-free (TestMultiSamplerZeroAllocSteadyState).
type MultiSampler struct {
	me       *sim.MultiEngine
	interval sim.Time

	times column // frontier instants, shared time axis for every series
	doms  []*Series
	seriesSet

	walkFn func(name string, res sim.Resource)
}

// NewMultiSampler creates a barrier sampler over me; interval <= 0 means
// DefaultInterval. Install it with me.SetBarrierObserver (AttachMulti
// does both).
func NewMultiSampler(me *sim.MultiEngine, interval sim.Time) *MultiSampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	s := &MultiSampler{
		me:        me,
		interval:  interval,
		seriesSet: newSeriesSet(),
	}
	s.walkFn = s.record
	for i := 0; i < me.Domains(); i++ {
		se := &Series{Name: fmt.Sprintf("sim.domain%d", i), Kind: sim.KindDomain}
		s.doms = append(s.doms, se)
		s.series[se.Name] = se
		s.ordered = append(s.ordered, se)
	}
	return s
}

// Samples reports how many sample instants were recorded.
func (s *MultiSampler) Samples() int { return s.times.len() }

// Time reports the frontier time of the i-th sample instant.
func (s *MultiSampler) Time(i int) sim.Time { return sim.Time(s.times.at(i)) }

// OnBarrier implements sim.BarrierObserver: sample when the frontier has
// advanced a full interval past the previous sample, and always on the
// terminating barrier (unless the frontier has not moved since the last
// sample, so repeated Run invocations do not duplicate instants).
func (s *MultiSampler) OnBarrier(m *sim.MultiEngine, mailboxes []int, final bool) {
	now := m.Now()
	if n := s.times.len(); n > 0 {
		last := sim.Time(s.times.at(n - 1))
		if final {
			if now == last {
				return
			}
		} else if now < last+s.interval {
			return
		}
	}
	s.times.append(int64(now))
	for i, se := range s.doms {
		d := m.Domain(i)
		se.occupancy.append(int64(d.Pending()))
		se.ops.append(int64(d.Executed()))
		se.bytes.append(0)
		se.busy.append(int64(d.Now()))
		se.wait.append(int64(now - d.Now()))
		mb := 0
		if i < len(mailboxes) {
			mb = mailboxes[i]
		}
		se.stalls.append(int64(mb))
	}
	m.Stats().Walk(s.walkFn)
	s.samples++
}

// Series returns every recorded series — registry resources plus the
// synthetic "sim.domainN" streams — sorted by name, the deterministic
// export order.
func (s *MultiSampler) Series() []*Series { return s.sorted() }

// Lookup finds one series by resource (or synthetic domain) name.
func (s *MultiSampler) Lookup(name string) (*Series, bool) {
	se, ok := s.series[name]
	return se, ok
}

// MultiRecorder bundles one cluster run's observability state: the
// barrier sampler and (when spans are enabled) one GAM span log per
// node. Each log is only ever appended to by its owning node's event
// domain, so recording stays synchronization-free; MergedSpans restores
// one deterministic order at export time.
type MultiRecorder struct {
	Sampler *MultiSampler
	// Spans has one entry per node when Options.Spans was set (nil
	// otherwise). Populated by the model layer that owns the nodes.
	Spans []*SpanLog
}

// AttachMulti creates a MultiRecorder on me and installs its sampler as
// the barrier observer. When o.Spans is set the caller wires the
// per-node logs (e.g. cluster.AttachSpans) into Spans before the run.
func AttachMulti(me *sim.MultiEngine, o Options) *MultiRecorder {
	r := &MultiRecorder{Sampler: NewMultiSampler(me, o.Interval)}
	me.SetBarrierObserver(r.Sampler)
	return r
}

// MergedSpans flattens the per-node logs into one deterministic order:
// by start time, ties broken by node index then emission order — the
// same (time, domain, seq) shape the barrier uses for cross-domain
// events.
func (r *MultiRecorder) MergedSpans() []Span { return MergeSpans(r.Spans) }

// MergeSpans merges per-producer span logs into one stable (start,
// producer, emission) order. Nil logs are skipped.
func MergeSpans(logs []*SpanLog) []Span {
	var out []Span
	for _, l := range logs {
		out = append(out, l.Spans()...)
	}
	// Stable sort on start time alone: equal starts keep concatenation
	// order, which is (producer index, emission order).
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
