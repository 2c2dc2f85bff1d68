package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// TestObsFoldsIntoStats pins the recorder integration shared by all
// three mechanisms: an active recorder at construction binds a ring,
// monitor operations publish events into it, Stats folds the ring's
// write/drop accounting in at snapshot time (so ResetStats cannot lose
// it), and a parked wait lands in the wake-to-claim histogram. The
// recorder is process-global, so no t.Parallel here.
func TestObsFoldsIntoStats(t *testing.T) {
	rec := obs.Start(1 << 10)
	defer obs.Stop()

	mon := New()
	base := NewBaseline()
	exp := NewExplicit()
	cond := exp.NewCond()
	for _, tc := range []struct {
		name string
		mech Mechanism
		set  func(f func()) // run f inside the monitor and wake waiters
	}{
		{"monitor", mon, mon.Do},
		{"explicit", exp, func(f func()) { exp.Do(func() { f(); cond.Broadcast() }) }},
		{"baseline", base, base.Do},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mech
			done := make(chan struct{})
			var gate bool
			go func() {
				defer close(done)
				// Open the gate only once the main goroutine is parked, so
				// the wait cannot resolve on the fast path (which would
				// leave the latency histogram empty by design).
				for m.Waiting() == 0 {
					runtime.Gosched()
				}
				tc.set(func() { gate = true })
			}()
			m.Enter()
			m.AwaitFunc(func() bool { return gate })
			m.Exit()
			<-done

			s := m.Stats()
			if s.ObsEvents == 0 {
				t.Fatal("no events folded into Stats with an active recorder")
			}
			m.ResetStats()
			s2 := m.Stats()
			if s2.ObsEvents < s.ObsEvents {
				t.Errorf("ObsEvents fell from %d to %d across ResetStats; ring accounting must survive resets",
					s.ObsEvents, s2.ObsEvents)
			}
			if h := m.WaitLatency(); h == nil || h.Count() == 0 {
				t.Errorf("parked wait recorded no wake-to-claim latency (hist=%v)", h)
			}
		})
	}

	if len(rec.Rings()) != 3 {
		t.Errorf("recorder holds %d rings, want 3 (one per mechanism)", len(rec.Rings()))
	}
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("recorder captured no events")
	}
	kinds := make(map[obs.Kind]int)
	for _, ev := range events {
		if !ev.Kind.Valid() {
			t.Fatalf("invalid kind in captured event %+v", ev)
		}
		kinds[ev.Kind]++
	}
	for _, k := range []obs.Kind{obs.KEnter, obs.KExit, obs.KClaim} {
		if kinds[k] == 0 {
			t.Errorf("no %v events captured (kinds: %v)", k, kinds)
		}
	}
}

// TestSpansTimeTable1Phases pins the span events behind Table 1. One
// parked Monitor wait records all four phases: the lock span of each
// Enter, the await span of its claim, the relay span of the searches
// around it, and the tag spans of activating and retiring its predicate
// entry. An Explicit wait records lock and await, and no relay or tag
// span: it has no condition manager. The recorder is process-global, so
// no t.Parallel here.
func TestSpansTimeTable1Phases(t *testing.T) {
	obs.Start(1 << 10)
	mon := New()
	exp := NewExplicit()
	obs.Stop()

	count := mon.NewInt("count", 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		mon.Enter()
		_ = mon.Await("count >= 1")
		mon.Exit()
	}()
	waitParked(t, mon, 1)
	mon.Do(func() { count.Set(1) })
	waitTimeout(t, 5*time.Second, "monitor waiter", func() { <-done })
	a := obs.Analyze(mon.rec.Snapshot(), 0)
	if a.AwaitNs <= 0 || a.LockNs <= 0 || a.RelayNs <= 0 || a.TagNs <= 0 {
		t.Errorf("monitor wait: await=%d lock=%d relay=%d tag=%d ns, want all > 0",
			a.AwaitNs, a.LockNs, a.RelayNs, a.TagNs)
	}

	cond := exp.NewCond()
	gate := false
	done = make(chan struct{})
	go func() {
		defer close(done)
		exp.Enter()
		cond.Await(func() bool { return gate })
		exp.Exit()
	}()
	testutil.WaitFor(t, 10*time.Second, 0, func() bool { return exp.Waiting() == 1 }, "explicit waiter parked")
	exp.Do(func() { gate = true; cond.Signal() })
	waitTimeout(t, 5*time.Second, "explicit waiter", func() { <-done })
	a = obs.Analyze(exp.rec.Snapshot(), 0)
	if a.AwaitNs <= 0 || a.LockNs <= 0 || a.RelayNs != 0 || a.TagNs != 0 {
		t.Errorf("explicit wait: await=%d lock=%d relay=%d tag=%d ns, want await and lock > 0, relay = tag = 0",
			a.AwaitNs, a.LockNs, a.RelayNs, a.TagNs)
	}
}

// TestObsInactiveMonitorsRecordNothing pins the disabled default: a
// monitor built with no active recorder never touches a ring and reports
// zero obs counters.
func TestObsInactiveMonitorsRecordNothing(t *testing.T) {
	if obs.Active() != nil {
		t.Fatal("recorder unexpectedly active")
	}
	m := New()
	m.Do(func() {})
	if s := m.Stats(); s.ObsEvents != 0 || s.ObsDrops != 0 {
		t.Errorf("inactive recorder but ObsEvents=%d ObsDrops=%d", s.ObsEvents, s.ObsDrops)
	}
}
