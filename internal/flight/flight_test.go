package flight

import (
	"strings"
	"testing"

	"repro/internal/qtrace"
	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * sim.Millisecond }

// feed plays n completions through a log observed by the recorder, one
// arrival per millisecond, using lat(i) as each query's service time.
func feed(r *Recorder, n int, lat func(i int) sim.Time) *qtrace.Log {
	l := qtrace.NewLog(qtrace.Options{Observer: r})
	r.AttachLog(l)
	for i := 0; i < n; i++ {
		at := ms(i)
		l.Submitted(i, i, at)
		l.Completed(i, at+lat(i))
	}
	return l
}

// TestConfigDefaults: zero fields resolve to the documented defaults and
// the windows derive from the configured retention horizon.
func TestConfigDefaults(t *testing.T) {
	c := New(Config{}).cfg
	if c.Window != DefaultWindow || c.Objective != DefaultObjective {
		t.Fatalf("window/objective = %v/%v, want defaults", c.Window, c.Objective)
	}
	if c.shortWindow() != c.Window/8 || c.longWindow() != c.Window/2 || c.barrierEvery() != c.Window/64 {
		t.Fatalf("derived windows %v/%v/%v inconsistent with %v", c.shortWindow(), c.longWindow(), c.barrierEvery(), c.Window)
	}
	v := c.view()
	if v.ShortWindowMS != 125 || v.LongWindowMS != 500 || v.BurnThreshold != 0.5 || v.MinCompletions != 8 ||
		v.QueueRatio != 4 || v.QueueFloor != 8 || v.CacheDrop != 0.25 || v.CacheMinLookups != 32 {
		t.Fatalf("detector defaults off: %+v", v)
	}
	c2 := New(Config{Window: 100 * sim.Millisecond}).cfg
	if c2.shortWindow() != ms(100)/8 || c2.longWindow() != ms(50) {
		t.Fatalf("custom window did not propagate: %+v", c2.view())
	}
}

// TestBurnDetectorFreezesOnce: a sustained latency regression past the
// objective fires slo-burn exactly once; the freeze stops retention,
// counting, and any further detection.
func TestBurnDetectorFreezesOnce(t *testing.T) {
	r := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	feed(r, 80, func(i int) sim.Time {
		if i < 40 {
			return ms(1) // healthy baseline
		}
		return ms(20) // sustained breach
	})
	st := r.Status()
	if !st.Frozen || st.TriggerDetector != DetectorSLOBurn {
		t.Fatalf("status = %+v, want frozen by %s", st, DetectorSLOBurn)
	}
	if n := st.Detections[DetectorSLOBurn]; n != 1 {
		t.Fatalf("detections = %v, want exactly one", st.Detections)
	}
	// The long window is Window/2 = 50 ms: the breach fraction over it
	// crosses 50% once ~25 breached completions accumulated, i.e. well
	// before the feed ends — the frozen counters must show fewer
	// completions than were offered.
	if st.Completions >= 80 {
		t.Fatalf("freeze did not stop the counters: %d completions", st.Completions)
	}
	v := r.Verdict()
	if v.Detector != DetectorSLOBurn || v.TriggerMS == 0 {
		t.Fatalf("verdict = %+v", v)
	}
	if len(v.Series) == 0 || v.Observed == nil || !v.Observed.Breached {
		t.Fatalf("verdict carries no triggering series: %+v", v)
	}
	if v.Observed.BurnShort < 0.5 || v.Observed.BurnLong < 0.5 {
		t.Fatalf("observed burn %v/%v below threshold at trigger", v.Observed.BurnShort, v.Observed.BurnLong)
	}
	if !strings.Contains(v.Reason, "breach rate") {
		t.Fatalf("reason = %q", v.Reason)
	}
	// The series is the ring at the freeze: its last point is the trigger.
	if got := v.Series[len(v.Series)-1]; got != *v.Observed {
		t.Fatalf("series tail %+v != observed %+v", got, *v.Observed)
	}
	// Window ends at the triggering completion.
	_, to := r.Window()
	if to.Milliseconds() != v.TriggerMS {
		t.Fatalf("window ends at %v, trigger at %v ms", to, v.TriggerMS)
	}
}

// TestBurnNeedsBothWindows: a short blip that breaches the short window
// but not the long one must not trigger.
func TestBurnNeedsBothWindows(t *testing.T) {
	r := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	feed(r, 80, func(i int) sim.Time {
		if i >= 40 && i < 50 {
			return ms(20) // 10 ms blip ≈ short window, well under half the long window
		}
		return ms(1)
	})
	if st := r.Status(); st.Frozen {
		t.Fatalf("blip froze the recorder: %+v", st)
	}
}

// TestQueueDivergenceDetector: a hot shard (max far above median
// outstanding) triggers queue-divergence; a uniformly loaded cluster at
// the same depth does not.
func TestQueueDivergenceDetector(t *testing.T) {
	hot := []int{40, 2, 3, 2}
	r := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	r.SetLoadProvider(func(dst []int) []int { return append(dst, hot...) })
	feed(r, 4, func(int) sim.Time { return ms(1) })
	st := r.Status()
	if !st.Frozen || st.TriggerDetector != DetectorQueueSkew {
		t.Fatalf("status = %+v, want %s", st, DetectorQueueSkew)
	}
	v := r.Verdict()
	if v.Observed.QueueMax != 40 || v.Observed.QueueMedian != 2.5 || v.Observed.QueueRatio != 16 {
		t.Fatalf("observed queue shape %+v", v.Observed)
	}
	if len(v.RouterLoads) != 4 || v.RouterLoads[0] != 40 {
		t.Fatalf("verdict loads = %v", v.RouterLoads)
	}

	flat := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	flat.SetLoadProvider(func(dst []int) []int { return append(dst, 40, 38, 41, 39) })
	feed(flat, 4, func(int) sim.Time { return ms(1) })
	if flat.Status().Frozen {
		t.Fatal("uniform deep queues are not divergence")
	}

	shallow := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(5)})
	shallow.SetLoadProvider(func(dst []int) []int { return append(dst, 4, 0, 0, 0) })
	feed(shallow, 4, func(int) sim.Time { return ms(1) })
	if shallow.Status().Frozen {
		t.Fatal("skew below the queue floor must not trigger")
	}
}

// TestCacheCollapseDetector: the short-window hit rate falling far below
// the long-window rate triggers cache-collapse once enough short-window
// lookups accumulated; without a provider the detector is inert.
func TestCacheCollapseDetector(t *testing.T) {
	r := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(50)})
	var lookups, hits uint64
	r.SetCacheProvider(func() (uint64, uint64) { return lookups, hits })
	l := qtrace.NewLog(qtrace.Options{Observer: r})
	r.AttachLog(l)
	for i := 0; i < 80; i++ {
		lookups += 10
		if i < 50 {
			hits += 9 // 90% regime
		} // then total miss
		at := ms(i)
		l.Submitted(i, i, at)
		l.Completed(i, at+ms(1))
	}
	st := r.Status()
	if !st.Frozen || st.TriggerDetector != DetectorCacheDrop {
		t.Fatalf("status = %+v, want %s", st, DetectorCacheDrop)
	}
	v := r.Verdict()
	if v.Observed.HitShort >= v.Observed.HitLong || v.Observed.HitLong < 0.25 {
		t.Fatalf("observed hit rates %v/%v not a collapse", v.Observed.HitShort, v.Observed.HitLong)
	}
	if v.CacheLookups == 0 || v.CacheLookups <= v.CacheHits {
		t.Fatalf("verdict cache counters %d/%d", v.CacheLookups, v.CacheHits)
	}

	// Same completion stream, no provider: hit rates report -1, no trigger.
	inert := New(Config{Window: 100 * sim.Millisecond, Detect: true, Objective: ms(50)})
	feed(inert, 80, func(int) sim.Time { return ms(1) })
	if inert.Status().Frozen {
		t.Fatal("cache detector fired without a cache provider")
	}
	if pt := inert.Verdict().Observed; pt.HitShort != -1 || pt.HitLong != -1 {
		t.Fatalf("no-cache hit rates = %v/%v, want -1", pt.HitShort, pt.HitLong)
	}
}

// TestDisarmedRecorderOnlyRetains: without Detect the recorder never
// freezes, keeps a sliding window, and the end-of-run verdict has no
// detector but a full series.
func TestDisarmedRecorderOnlyRetains(t *testing.T) {
	r := New(Config{Window: 10 * sim.Millisecond, Objective: ms(5)})
	feed(r, 100, func(int) sim.Time { return ms(20) }) // every one breaches
	st := r.Status()
	if st.Frozen || len(st.Detections) != 0 {
		t.Fatalf("disarmed recorder froze: %+v", st)
	}
	if st.Completions != 100 || st.Breaches != 100 {
		t.Fatalf("counters = %d/%d, want 100/100", st.Completions, st.Breaches)
	}
	if st.Retained >= 100 || st.Retained == 0 {
		t.Fatalf("retained %d of 100 with a 10 ms window", st.Retained)
	}
	v := r.Verdict()
	if v.Detector != "" || v.TriggerMS != 0 {
		t.Fatalf("end-of-run verdict = %+v", v)
	}
	if len(v.Series) == 0 || v.Observed == nil {
		t.Fatalf("end-of-run verdict lost its series: %+v", v)
	}
	// The observation ring slides with the retention window.
	if int64(len(v.Series)) > int64(st.Retained)+1 {
		t.Fatalf("series %d points vs %d retained queries", len(v.Series), st.Retained)
	}
	wl := r.WindowLog()
	if int(wl.CompletedCount()) != st.Retained {
		t.Fatalf("window log %d completions, status retained %d", wl.CompletedCount(), st.Retained)
	}
}

// TestBarrierRing: barrier samples honour the Window/64 throttle, the
// final barrier is always captured, samples slide out of the window, and
// a freeze stops sampling.
func TestBarrierRing(t *testing.T) {
	// A real two-domain run: a CrossLink bounds the lookahead to 100 µs so
	// barrier rounds advance in small steps, and self-rescheduling ticks
	// keep both domains busy for 100 ms.
	runEngine := func(r *Recorder) {
		m := sim.NewMultiEngine(2)
		sim.NewCrossLink(m.Domain(0), "link", 1e9, 100*sim.Microsecond)
		for i := 0; i < 2; i++ {
			d := m.Domain(i)
			var tick func()
			tick = func() {
				if d.Now() < ms(100) {
					d.Schedule(100*sim.Microsecond, tick)
				}
			}
			d.At(0, tick)
		}
		m.SetBarrierObserver(r)
		m.Run()
	}
	// A 64 ms window spaces samples 1 ms apart.
	r := New(Config{Window: 64 * sim.Millisecond})
	runEngine(r)
	bars := r.BarrierWindow()
	if len(bars) == 0 {
		t.Fatal("no barrier samples retained")
	}
	// 64 ms window at 1 ms spacing → at most ~66 samples survive
	// (window edge plus the terminating barrier).
	if len(bars) > 67 {
		t.Fatalf("throttle failed: %d samples in a 64-sample window", len(bars))
	}
	// The run ends at the 100 ms frontier; the ring's newest sample must
	// sit there — either the terminating barrier or the same-instant round
	// sample it deduplicated against.
	last := bars[len(bars)-1]
	if last.at != ms(100) {
		t.Fatalf("newest sample at %v, run ended at 100 ms: %+v", last.at, last)
	}
	for i := 1; i < len(bars)-1; i++ {
		if gap := bars[i].at - bars[i-1].at; gap < ms(1) {
			t.Fatalf("samples %d,%d only %v apart", i-1, i, gap)
		}
	}
	if len(last.Domains) != 2 || last.Domains[0].ClockUS == 0 || last.Domains[0].Executed == 0 {
		t.Fatalf("sample missing domain stats: %+v", last)
	}
	// Ring slid: nothing older than the window before the last sample.
	if first := bars[0]; last.at-first.at > 64*sim.Millisecond {
		t.Fatalf("ring kept %v of history, window is 64 ms", last.at-first.at)
	}

	// A frozen recorder never samples.
	frozen := New(Config{Window: 64 * sim.Millisecond})
	frozen.mu.Lock()
	frozen.frozen = true
	frozen.mu.Unlock()
	runEngine(frozen)
	if n := len(frozen.BarrierWindow()); n != 0 {
		t.Fatalf("frozen recorder sampled %d barriers", n)
	}
}

// TestBarrierTee: nil sides collapse to the other operand; a real tee
// notifies a before b.
func TestBarrierTee(t *testing.T) {
	if BarrierTee(nil, nil) != nil {
		t.Fatal("BarrierTee(nil, nil) must be nil")
	}
	r := New(Config{})
	if BarrierTee(r, nil) != sim.BarrierObserver(r) || BarrierTee(nil, r) != sim.BarrierObserver(r) {
		t.Fatal("nil side must collapse to the operand itself")
	}
	var order []string
	a := obsFunc(func() { order = append(order, "a") })
	b := obsFunc(func() { order = append(order, "b") })
	BarrierTee(a, b).OnBarrier(sim.NewMultiEngine(1), nil, false)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("tee order = %v", order)
	}
}

// obsFunc adapts a func to sim.BarrierObserver for ordering checks.
type obsFunc func()

func (f obsFunc) OnBarrier(*sim.MultiEngine, []int, bool) { f() }
