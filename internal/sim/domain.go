package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file partitions the event engine for parallel execution of one
// large simulation. A Domain is an independent event engine — its own
// 4-ary calendar heap, slot pool and virtual clock — and a MultiEngine
// coordinates N domains with conservative (YAWNS-style, null-message-free)
// barrier synchronization: each round, every domain safely executes all
// events strictly before min(next event over all domains) + lookahead,
// where the lookahead is the minimum latency of any CrossLink declared at
// wiring time. Any event one domain can cause in another is at least one
// cross-link latency in the future, so events inside the window cannot be
// invalidated by a message still in flight.
//
// Determinism is the design's spine, not a hope:
//
//   - The domain decomposition is fixed by the model topology, never by
//     the worker count. Changing the number of workers changes only which
//     OS thread executes a domain's round — the rounds themselves, each
//     domain's intra-round event order, and every cross-domain delivery
//     are identical. Output is byte-identical at any parallelism.
//   - Within a round, domains are mutually independent by construction
//     (cross-domain effects ride mailboxes that are only drained at the
//     barrier), so execution order across domains cannot matter.
//   - Mailboxes are drained single-threaded between rounds in a total
//     stable order — (delivery time, source domain id, source export
//     seq) — so same-timestamp events from two different domains merge
//     into the destination calendar identically every run.
//
// Intra-domain hot paths are untouched: scheduling and dispatch inside a
// domain stay lock-free and allocation-free exactly as in the
// single-engine case. Only a cross-domain export takes a lock (the
// destination's mailbox mutex), and only the coordinator touches the
// mailboxes between rounds.

// Domain is one event-domain of a partitioned simulation. A Domain is an
// Engine — the single-domain Engine API (AtCall, ScheduleCall, handles,
// resources) is exactly the per-domain API, so model code written against
// *Engine runs unchanged inside a domain. Standalone engines made with
// NewEngine are simply single domains that were never attached to a
// MultiEngine.
type Domain = Engine

// xevent is one cross-domain event waiting in a destination mailbox.
// src/xseq make the barrier merge order total and worker-independent.
type xevent struct {
	at   Time
	src  int32
	xseq uint64
	h    Handler
	arg  uint64
}

// inbox is a domain's bounded inbound mailbox. Senders append under the
// mutex during a round; the coordinator drains it at the barrier. The
// backing array is retained between rounds, so a warmed mailbox appends
// without allocating; its effective bound is the cross-domain traffic of
// one lookahead window.
type inbox struct {
	mu      sync.Mutex
	pending []xevent
}

// DomainProgress is one domain's live position, published at barriers.
type DomainProgress struct {
	// Clock is the domain's virtual time (its last executed event).
	Clock Time
	// Pending is the domain calendar's population at the barrier.
	Pending int
	// Mailbox is the inbound mailbox depth just before the drain.
	Mailbox int
	// Executed counts events the domain has dispatched so far.
	Executed uint64
}

// MultiProgress is a consistent snapshot of a running MultiEngine, taken
// at the most recent barrier. Safe to read concurrently with the run —
// this is what the live inspector serves.
type MultiProgress struct {
	Rounds    uint64
	Lookahead Time
	Domains   []DomainProgress
}

// MultiEngine coordinates N event domains executing one simulation in
// parallel. Wire the model as usual against each Domain's Engine API,
// connect domains with CrossLinks (whose minimum latency becomes the
// synchronization lookahead), then call Run. Workers sets how many
// goroutines execute domains each round; results are byte-identical for
// any worker count, including 1 (fully serial, no goroutines).
type MultiEngine struct {
	domains   []*Engine
	stats     *StatsRegistry
	lookahead Time // min CrossLink latency; MaxTime until a link is wired
	workers   int
	rounds    uint64
	running   bool

	// round scratch, reused across rounds
	merge  []mergeEntry
	active []int32

	// parallel execution state
	bound    Time
	next     atomic.Int64
	startCh  chan struct{}
	roundWG  sync.WaitGroup
	panicMu  sync.Mutex
	panicked any

	// progress is rewritten in place at each barrier under progressMu.
	progressMu sync.Mutex
	progress   MultiProgress

	// barrier, when set, is invoked by the coordinator after every round's
	// progress publication and once more when the run drains.
	barrier BarrierObserver
}

// BarrierObserver receives a coordinator callback at every barrier of a
// MultiEngine run, after the round's cross-domain mailboxes were drained
// and the progress snapshot was published. The callback runs on the
// coordinator goroutine while every domain is quiescent, so the observer
// may read domain clocks, calendars and the shared StatsRegistry without
// synchronization — this is the sampling hook time-resolved cluster
// observability hangs off. mailboxes[i] is domain i's inbound mailbox
// depth observed at the barrier (before the drain emptied it). final is
// true for the terminating callback of a Run invocation, when every
// calendar and mailbox is empty.
//
// Observers must not schedule events: the round structure (and therefore
// Rounds()) is part of the deterministic output, and an observer-injected
// event would perturb it. Observation is read-only by contract.
type BarrierObserver interface {
	OnBarrier(m *MultiEngine, mailboxes []int, final bool)
}

// SetBarrierObserver installs the coordinator's barrier callback (nil
// removes it). Barrier structure is worker-independent, so anything an
// observer records is byte-identical at any SetWorkers width. Call
// before Run.
func (m *MultiEngine) SetBarrierObserver(o BarrierObserver) {
	if m.running {
		panic("sim: SetBarrierObserver during Run")
	}
	m.barrier = o
}

// mergeEntry pairs a drained cross event with its destination.
type mergeEntry struct {
	dst *Engine
	ev  xevent
}

// NewMultiEngine returns a coordinator over n fresh domains (ids 0..n-1)
// sharing one StatsRegistry, so resources wired anywhere in the partition
// keep globally unique hierarchical names and one registry walk still
// covers the whole simulation.
func NewMultiEngine(n int) *MultiEngine {
	if n < 1 {
		panic(fmt.Sprintf("sim: MultiEngine needs at least one domain, got %d", n))
	}
	m := &MultiEngine{
		stats:     NewStatsRegistry(),
		lookahead: MaxTime,
		workers:   1,
	}
	for i := 0; i < n; i++ {
		d := NewEngine()
		d.stats = m.stats
		d.id = int32(i)
		d.multi = m
		m.domains = append(m.domains, d)
	}
	m.progress.Domains = make([]DomainProgress, n)
	m.progress.Lookahead = MaxTime
	return m
}

// Domains reports the partition width.
func (m *MultiEngine) Domains() int { return len(m.domains) }

// Domain returns domain i's engine.
func (m *MultiEngine) Domain(i int) *Engine { return m.domains[i] }

// Stats returns the registry shared by every domain.
func (m *MultiEngine) Stats() *StatsRegistry { return m.stats }

// Lookahead reports the conservative synchronization window: the minimum
// CrossLink latency wired so far (MaxTime when domains are unconnected —
// each then runs to completion in a single round).
func (m *MultiEngine) Lookahead() Time { return m.lookahead }

// SetWorkers bounds how many goroutines execute domains per round; n <= 1
// selects the fully serial coordinator. More workers than domains is
// clamped. Call before Run.
func (m *MultiEngine) SetWorkers(n int) {
	if m.running {
		panic("sim: SetWorkers during Run")
	}
	if n < 1 {
		n = 1
	}
	if n > len(m.domains) {
		n = len(m.domains)
	}
	m.workers = n
}

// Rounds reports how many barrier rounds have executed.
func (m *MultiEngine) Rounds() uint64 { return m.rounds }

// Now reports the simulation's frontier: the maximum domain clock.
func (m *MultiEngine) Now() Time {
	var max Time
	for _, d := range m.domains {
		if d.now > max {
			max = d.now
		}
	}
	return max
}

// Executed sums dispatched events over all domains.
func (m *MultiEngine) Executed() uint64 {
	var n uint64
	for _, d := range m.domains {
		n += d.executed
	}
	return n
}

// Pending sums calendar populations over all domains (mailboxes excluded).
func (m *MultiEngine) Pending() int {
	var n int
	for _, d := range m.domains {
		n += len(d.heap)
	}
	return n
}

// Progress returns the barrier-consistent snapshot the coordinator
// published most recently. Safe to call from any goroutine while Run
// executes — this is the inspector's read path.
func (m *MultiEngine) Progress() MultiProgress {
	m.progressMu.Lock()
	defer m.progressMu.Unlock()
	out := m.progress
	out.Domains = append([]DomainProgress(nil), m.progress.Domains...)
	return out
}

// publishProgress rewrites the published snapshot. mailboxes[i] is the
// depth observed at the barrier, before the drain emptied it.
func (m *MultiEngine) publishProgress(mailboxes []int) {
	m.progressMu.Lock()
	m.progress.Rounds = m.rounds
	m.progress.Lookahead = m.lookahead
	for i, d := range m.domains {
		m.progress.Domains[i] = DomainProgress{
			Clock:    d.now,
			Pending:  len(d.heap),
			Mailbox:  mailboxes[i],
			Executed: d.executed,
		}
	}
	m.progressMu.Unlock()
}

// observeLatency folds a newly wired cross-domain latency into the
// lookahead. Latencies must be positive: a zero-latency cross link would
// collapse the safe window to nothing and the barrier could never admit
// an event.
func (m *MultiEngine) observeLatency(l Time) {
	if l <= 0 {
		panic(fmt.Sprintf("sim: cross-domain latency %v must be positive (it bounds the conservative lookahead)", l))
	}
	if l < m.lookahead {
		m.lookahead = l
	}
}

// drain moves every mailbox's pending events into the destination
// calendars in the total (at, src, xseq) order, returning the observed
// per-domain mailbox depths. Coordinator-only, between rounds.
func (m *MultiEngine) drain(depths []int) {
	m.merge = m.merge[:0]
	for i, d := range m.domains {
		d.inbox.mu.Lock()
		depths[i] = len(d.inbox.pending)
		for _, ev := range d.inbox.pending {
			m.merge = append(m.merge, mergeEntry{dst: d, ev: ev})
		}
		d.inbox.pending = d.inbox.pending[:0]
		d.inbox.mu.Unlock()
	}
	sort.Slice(m.merge, func(i, j int) bool {
		a, b := m.merge[i].ev, m.merge[j].ev
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.xseq < b.xseq
	})
	for _, e := range m.merge {
		if e.ev.at < e.dst.now {
			panic(fmt.Sprintf("sim: cross-domain event at %v delivered into domain %d already at %v (lookahead violated)",
				e.ev.at, e.dst.id, e.dst.now))
		}
		e.dst.push(e.ev.at, e.ev.h, e.ev.arg, nil)
	}
}

// Run executes the partitioned simulation to completion: barrier rounds of
// drain → safe-window execution until every calendar and mailbox is empty.
// Panics on re-entrant invocation. A model panic inside any domain is
// re-raised on the caller's goroutine.
func (m *MultiEngine) Run() {
	if m.running {
		panic("sim: re-entrant MultiEngine.Run")
	}
	m.running = true
	defer func() { m.running = false }()

	if m.workers > 1 && m.startCh == nil {
		m.startWorkers()
	}
	depths := make([]int, len(m.domains))
	for {
		m.drain(depths)
		tmin := MaxTime
		for _, d := range m.domains {
			if len(d.heap) > 0 && d.heap[0].at < tmin {
				tmin = d.heap[0].at
			}
		}
		if tmin == MaxTime {
			m.publishProgress(depths)
			if m.barrier != nil {
				m.barrier.OnBarrier(m, depths, true)
			}
			return
		}
		bound := tmin + m.lookahead
		if bound < tmin { // overflow (unconnected partitions run unbounded)
			bound = MaxTime
		}
		m.runRound(bound)
		m.rounds++
		m.publishProgress(depths)
		if m.barrier != nil {
			m.barrier.OnBarrier(m, depths, false)
		}
	}
}

// runRound executes every domain's safe window. Domains without an event
// inside the window are skipped; a round with at most one active domain
// runs inline even under a parallel configuration, so sparse phases do not
// pay the hand-off latency.
func (m *MultiEngine) runRound(bound Time) {
	m.active = m.active[:0]
	for i, d := range m.domains {
		if len(d.heap) > 0 && d.heap[0].at < bound {
			m.active = append(m.active, int32(i))
		}
	}
	if m.workers <= 1 || len(m.active) <= 1 {
		for _, i := range m.active {
			m.domains[i].runBound(bound)
		}
		return
	}
	w := m.workers
	if w > len(m.active) {
		w = len(m.active)
	}
	m.bound = bound
	m.next.Store(0)
	m.roundWG.Add(w)
	for i := 0; i < w; i++ {
		m.startCh <- struct{}{}
	}
	m.roundWG.Wait()
	m.panicMu.Lock()
	p := m.panicked
	m.panicked = nil
	m.panicMu.Unlock()
	if p != nil {
		panic(p)
	}
}

// startWorkers launches the persistent round executors. They live for the
// MultiEngine's lifetime; each round the coordinator hands out tokens and
// workers claim active domains off a shared counter.
func (m *MultiEngine) startWorkers() {
	m.startCh = make(chan struct{})
	for i := 0; i < m.workers; i++ {
		go func() {
			for range m.startCh {
				m.workRound()
				m.roundWG.Done()
			}
		}()
	}
}

// workRound claims and executes active domains until the round's counter
// is exhausted, capturing (not swallowing) the first model panic.
func (m *MultiEngine) workRound() {
	defer func() {
		if r := recover(); r != nil {
			m.panicMu.Lock()
			if m.panicked == nil {
				m.panicked = r
			}
			m.panicMu.Unlock()
			// Drain the remaining claims so the round still terminates.
			for {
				i := m.next.Add(1) - 1
				if int(i) >= len(m.active) {
					return
				}
			}
		}
	}()
	for {
		i := m.next.Add(1) - 1
		if int(i) >= len(m.active) {
			return
		}
		m.domains[m.active[i]].runBound(m.bound)
	}
}

// ExportAt schedules h.Fire(dst, arg) at absolute time t in another
// domain of the same MultiEngine, through dst's mailbox. The event is
// committed at the next barrier. t must respect the conservative lookahead — at least one
// lookahead past the exporting domain's clock — or the destination could
// already have advanced past it. CrossLink.Send is the usual way to get
// the timing right; ExportAt is the low-level primitive for latency-only
// control messages.
func (e *Engine) ExportAt(dst *Engine, t Time, h Handler, arg uint64) {
	if e.multi == nil || dst == nil || dst.multi != e.multi {
		panic("sim: ExportAt needs source and destination domains of one MultiEngine")
	}
	if dst == e {
		panic("sim: ExportAt to the exporting domain; use AtCall")
	}
	if h == nil {
		panic("sim: exporting nil handler")
	}
	if t < e.now+e.multi.lookahead {
		panic(fmt.Sprintf("sim: ExportAt %v within lookahead %v of domain %d's clock %v",
			t, e.multi.lookahead, e.id, e.now))
	}
	e.xseq++
	dst.inbox.mu.Lock()
	dst.inbox.pending = append(dst.inbox.pending, xevent{
		at: t, src: e.id, xseq: e.xseq, h: h, arg: arg,
	})
	dst.inbox.mu.Unlock()
}

// CrossLink is a Link whose deliveries land in other event domains: the
// egress capacity (bandwidth, FIFO queueing, stats) lives in — and is only
// ever touched by — the source domain, while each completed transfer
// schedules its arrival event into the destination domain's mailbox, to be
// committed at the next barrier. Its fixed latency is declared at wiring
// time and folds into the MultiEngine's conservative lookahead, which is
// what makes the barrier window safe.
type CrossLink struct {
	l   *Link
	src *Engine
}

// NewCrossLink creates a cross-domain link owned by src, registered under
// name in the shared registry. latency must be positive; it becomes (part
// of) the MultiEngine's lookahead.
func NewCrossLink(src *Engine, name string, bytesPerSec float64, latency Time) *CrossLink {
	if src == nil || src.multi == nil {
		panic("sim: NewCrossLink needs a domain attached to a MultiEngine")
	}
	src.multi.observeLatency(latency)
	return &CrossLink{l: NewLink(src, name, bytesPerSec, latency), src: src}
}

// Link exposes the underlying egress resource (stats, name, latency).
func (x *CrossLink) Link() *Link { return x.l }

// Send reserves the egress capacity for n payload bytes (FIFO behind
// in-flight transfers, exactly like Link.Transfer) and schedules
// h.Fire(dst, arg) in the destination domain when the last byte lands —
// egress occupancy plus the link latency. Zero-byte sends model
// control-plane messages: pure latency, no capacity occupancy, no stats.
func (x *CrossLink) Send(dst *Engine, n int64, h Handler, arg uint64) {
	end := x.l.reserve(x.src.now, x.l.duration(n), n)
	x.src.ExportAt(dst, end+x.l.latency, h, arg)
}
