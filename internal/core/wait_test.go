package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestWaitHandleLifecycle walks one handle through the full happy path:
// armed, notified by a relay signal, claimed with the monitor held.
func TestWaitHandleLifecycle(t *testing.T) {
	m := New()
	defer testutil.NoLeaks(t, m)()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	w := need.Arm(BindInt("k", 3))
	if err := w.Err(); err != nil {
		t.Fatalf("Err after Arm = %v", err)
	}
	if got := m.Waiting(); got != 1 {
		t.Fatalf("Waiting() = %d after Arm, want 1", got)
	}
	select {
	case <-w.Ready():
		t.Fatal("handle ready before the predicate became true")
	default:
	}
	// An early Claim is answered truthfully: not ready, handle re-armed.
	if err := w.Claim(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("early Claim = %v, want ErrNotReady", err)
	}
	if s := m.Stats(); s.FutileClaims != 1 {
		t.Errorf("FutileClaims = %d, want 1", s.FutileClaims)
	}

	m.Do(func() { count.Set(5) })
	waitTimeout(t, 10*time.Second, "handle notification", func() { <-w.Ready() })
	if err := w.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	// The claimer holds the monitor with the predicate true.
	if count.Get() < 3 {
		t.Error("claimed with predicate false")
	}
	count.Set(0)
	m.Exit()

	if err := w.Claim(); !errors.Is(err, ErrClaimed) {
		t.Errorf("double Claim = %v, want ErrClaimed", err)
	}
	w.Cancel() // after claim: no-op
	if err := w.Err(); err != nil {
		t.Errorf("Err after claim = %v", err)
	}
	if got := m.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d after claim, want 0 (handle leaked)", got)
	}
	if p := pendingSignals(m); p != 0 {
		t.Errorf("pending = %d after claim", p)
	}
}

// TestWaitHandleFutileClaim forces the futile-claim re-arm path: the
// notified predicate is falsified by a racing mutation before the claim,
// the claim re-arms transparently, and the handle fires again on the next
// mutation — no signal is lost and no state leaks.
func TestWaitHandleFutileClaim(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	w := need.Arm(BindInt("k", 1))
	m.Do(func() { count.Set(1) })
	waitTimeout(t, 10*time.Second, "first notification", func() { <-w.Ready() })
	// Falsify before the claim.
	m.Do(func() { count.Set(0) })
	if err := w.Claim(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Claim after falsification = %v, want ErrNotReady", err)
	}
	if s := m.Stats(); s.FutileClaims != 1 {
		t.Errorf("FutileClaims = %d, want 1", s.FutileClaims)
	}
	if got := m.Waiting(); got != 1 {
		t.Fatalf("Waiting() = %d after futile claim, want 1 (still armed)", got)
	}
	if p := pendingSignals(m); p != 0 {
		t.Fatalf("pending = %d after futile claim (orphan not reconciled)", p)
	}

	// The re-armed handle must fire again.
	m.Do(func() { count.Set(2) })
	waitTimeout(t, 10*time.Second, "re-armed notification", func() { <-w.Ready() })
	if err := w.Claim(); err != nil {
		t.Fatalf("Claim after re-arm = %v", err)
	}
	m.Exit()
	if got := m.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d at end, want 0", got)
	}
}

// TestWaitHandleCancelReleasesSelect proves Cancel unblocks a selecting
// goroutine and fully unregisters the handle from the predicate table and
// tag structures.
func TestWaitHandleCancelReleasesSelect(t *testing.T) {
	m := New()
	m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	w := need.Arm(BindInt("k", 5))
	done := make(chan error, 1)
	go func() {
		<-w.Ready()
		done <- w.Err()
	}()
	w.Cancel()
	var err error
	waitTimeout(t, 10*time.Second, "cancelled select", func() { err = <-done })
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Err after Cancel = %v, want ErrCancelled", err)
	}
	if err := w.Claim(); !errors.Is(err, ErrCancelled) {
		t.Errorf("Claim after Cancel = %v, want ErrCancelled", err)
	}
	w.Cancel() // idempotent
	if got := m.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d after Cancel, want 0", got)
	}
	if active, inactive, groups, none := m.DebugCounts(); active != 0 || groups != 0 || none != 0 || inactive != 1 {
		t.Errorf("counts after Cancel: active=%d inactive=%d groups=%d none=%d, want 0/1/0/0",
			active, inactive, groups, none)
	}
	checkRelayState(t, m)
}

// TestWaitHandleArmErrors verifies arming failures are delivered through
// the handle: Ready closed immediately, Claim and Err carrying the
// *PredicateError (including ErrNeverTrue), Cancel a no-op.
func TestWaitHandleArmErrors(t *testing.T) {
	m := New()
	m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	bad := need.Arm() // missing binding
	select {
	case <-bad.Ready():
	default:
		t.Fatal("failed handle not born ready")
	}
	var perr *PredicateError
	if err := bad.Claim(); !errors.As(err, &perr) {
		t.Fatalf("Claim on failed handle = %v, want *PredicateError", err)
	}
	if bad.Err() == nil {
		t.Error("Err on failed handle = nil")
	}
	bad.Cancel()

	never := m.MustCompile("count >= k && k < 0")
	w := never.Arm(BindInt("k", 3))
	if err := w.Claim(); !errors.Is(err, ErrNeverTrue) {
		t.Fatalf("Claim on never-true handle = %v, want ErrNeverTrue", err)
	}
	if got := m.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d after failed arms, want 0", got)
	}
}

// TestWaitHandleConstantTrue arms a predicate whose globalization folds to
// constant true: the handle is born ready and Claim hands the monitor
// over immediately.
func TestWaitHandleConstantTrue(t *testing.T) {
	m := New()
	m.NewInt("count", 0)
	p := m.MustCompile("k >= 0 || count > 0")
	w := p.Arm(BindInt("k", 1))
	select {
	case <-w.Ready():
	default:
		t.Fatal("constant-true handle not born ready")
	}
	if err := w.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	m.Exit()
	if err := w.Claim(); !errors.Is(err, ErrClaimed) {
		t.Errorf("second Claim = %v, want ErrClaimed", err)
	}
}

// TestWaitHandleArmCancelVsRelayRace is the adversarial schedule of the
// handle API: a mutation that makes the armed predicate true races a
// Cancel of the same handle, with a second blocking waiter of the same
// predicate standing by. Whichever way the race resolves, the in-flight
// signal must be reconciled (pending returns to 0) and the blocking
// waiter must be released — relay invariance survives handle abandonment.
// Run with -race.
func TestWaitHandleArmCancelVsRelayRace(t *testing.T) {
	m := New()
	defer testutil.NoLeaks(t, m)()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	iters := 150
	if testing.Short() {
		iters = 25
	}
	for iter := 0; iter < iters; iter++ {
		w := need.Arm(BindInt("k", 1))
		survivor := make(chan struct{})
		go func() {
			defer close(survivor)
			m.Enter()
			if err := m.AwaitPred(need, BindInt("k", 2)); err != nil {
				t.Error(err)
			}
			m.Exit()
		}()
		waitParked(t, m, 2) // the armed handle plus the parked goroutine

		// Make both predicates true while concurrently cancelling the
		// handle: the relay signal may land on the handle or the parked
		// waiter, and the Cancel races it for the monitor lock.
		go w.Cancel()
		m.Do(func() { count.Set(2) })

		waitTimeout(t, 10*time.Second, "surviving waiter", func() { <-survivor })
		// The handle either completed the race cancelled, or — if Cancel
		// lost every race — is still armed/notified; settle it.
		w.Cancel()
		if err := w.Err(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("iter %d: handle Err = %v", iter, err)
		}
		if p := pendingSignals(m); p != 0 {
			t.Fatalf("iter %d: pending = %d, relay chain corrupted", iter, p)
		}
		if got := m.Waiting(); got != 0 {
			t.Fatalf("iter %d: Waiting() = %d, handle leaked", iter, got)
		}
		m.Do(func() { count.Set(0) })
	}
}

// TestWaitHandleSharedEntryWithBlockingWaiter parks a blocking waiter and
// arms a handle on the SAME entry (identical canonical predicate), then
// satisfies it once: exactly one of them gets the signal, and completing
// that one (claim or wake) must relay onward when the predicate still
// holds, releasing the other. Run with -race.
func TestWaitHandleSharedEntryWithBlockingWaiter(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	iters := 100
	if testing.Short() {
		iters = 20
	}
	for iter := 0; iter < iters; iter++ {
		blocked := make(chan struct{})
		go func() {
			defer close(blocked)
			m.Enter()
			if err := m.AwaitPred(need, BindInt("k", 3)); err != nil {
				t.Error(err)
			}
			m.Exit()
		}()
		waitParked(t, m, 1)
		w := need.Arm(BindInt("k", 3)) // same canonical entry
		m.Do(func() { count.Set(3) })  // stays true: both must complete

		waitTimeout(t, 10*time.Second, "handle side", func() { <-w.Ready() })
		if err := w.Claim(); err == nil {
			m.Exit()
		} else if !errors.Is(err, ErrNotReady) {
			t.Fatalf("iter %d: Claim = %v", iter, err)
		}
		waitTimeout(t, 10*time.Second, "blocked side", func() { <-blocked })
		w.Cancel() // in case the claim was futile and the handle re-armed
		if p := pendingSignals(m); p != 0 {
			t.Fatalf("iter %d: pending = %d", iter, p)
		}
		if got := m.Waiting(); got != 0 {
			t.Fatalf("iter %d: Waiting() = %d", iter, got)
		}
		m.Do(func() { count.Set(0) })
	}
}

// TestWaitHandleStress churns handles against blocking waiters and a
// producer: random arms, claims, cancels, and double-claims under -race.
// At the end no signal may be in flight and the monitor must be empty.
func TestWaitHandleStress(t *testing.T) {
	m := New()
	defer testutil.NoLeaks(t, m)()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	const actors = 48
	var claimed, cancelled atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < actors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := int64(i%7 + 1)
			w := need.Arm(BindInt("k", k))
			if i%4 == 0 {
				// Cancel from a separate goroutine, racing the relay.
				go w.Cancel()
			}
			for {
				<-w.Ready()
				err := w.Claim()
				switch {
				case err == nil:
					count.Add(-k / 2)
					m.Exit()
					claimed.Add(1)
					return
				case errors.Is(err, ErrNotReady):
					continue
				case errors.Is(err, ErrCancelled):
					cancelled.Add(1)
					return
				default:
					t.Errorf("actor %d: Claim = %v", i, err)
					return
				}
			}
		}(i)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				m.Do(func() { count.Add(2) })
			}
		}
	}()
	waitTimeout(t, 30*time.Second, "stress actors", func() { wg.Wait() })
	close(stop)
	if got := claimed.Load() + cancelled.Load(); got != actors {
		t.Errorf("accounted actors = %d, want %d", got, actors)
	}
	if p := pendingSignals(m); p != 0 {
		t.Errorf("pending = %d at end of stress", p)
	}
	if w := m.Waiting(); w != 0 {
		t.Errorf("Waiting() = %d at end of stress", w)
	}
	s := m.Stats()
	if s.Arms != actors {
		t.Errorf("Arms = %d, want %d", s.Arms, actors)
	}
	if s.Claims != uint64(claimed.Load()) {
		t.Errorf("Claims = %d, claimed = %d", s.Claims, claimed.Load())
	}
	t.Logf("stress: %d claimed, %d cancelled, stats: %s", claimed.Load(), cancelled.Load(), s.String())
}

// TestWaitHandleEarlyClaimAccounting pins the entry's signalable count
// against early claims: a Claim before any notification re-arms a waiter
// that never consumed one, which must NOT inflate the entry's unnotified
// count. The schedule then drains and re-arms the entry with the
// predicate true, so a corrupted count makes the next relaySignal find a
// "signalable" entry with no unnotified waiter and crash.
func TestWaitHandleEarlyClaimAccounting(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	w1 := need.Arm(BindInt("k", 1))
	w2 := need.Arm(BindInt("k", 1)) // same entry
	if err := w1.Claim(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("early Claim = %v", err)
	}
	m.Do(func() { count.Set(1) })
	for _, w := range []*Wait{w1, w2} {
		waitTimeout(t, 10*time.Second, "handle", func() { <-w.Ready() })
		if err := w.Claim(); err != nil {
			t.Fatalf("Claim = %v", err)
		}
		m.Exit()
	}
	// Re-register the (cached) entry while its predicate is true and
	// drive an exit: the relay search must deliver, not crash.
	w3 := need.Arm(BindInt("k", 1))
	m.Do(func() {})
	waitTimeout(t, 10*time.Second, "post-accounting handle", func() { <-w3.Ready() })
	if err := w3.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	m.Exit()
	if p := pendingSignals(m); p != 0 {
		t.Errorf("pending = %d", p)
	}
}

// TestWaitEarlyFutileClaimKeepsReady: a futile Claim before any
// notification keeps the handle's Ready channel, on every mechanism, so
// a receiver that took the channel before the claim is woken when the
// predicate turns true. A claim that replaced the channel lost that
// wake-up: the next notification closed the new channel only.
func TestWaitEarlyFutileClaimKeepsReady(t *testing.T) {
	for _, tc := range deadlineMechs() {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			var flag atomic.Bool
			w := tc.mech.ArmFunc(flag.Load)
			ready := w.Ready()
			if err := w.Claim(); !errors.Is(err, ErrNotReady) {
				t.Fatalf("early Claim = %v, want ErrNotReady", err)
			}
			flag.Store(true)
			tc.mech.Do(func() {
				if e, ok := tc.mech.(*Explicit); ok {
					e.NewCond().Broadcast() // explicit monitors notify on a manual signal
				}
			})
			waitTimeout(t, 10*time.Second, "receive from the Ready channel taken before the early Claim", func() { <-ready })
			if err := w.Claim(); err != nil {
				t.Fatalf("Claim = %v, want nil", err)
			}
			tc.mech.Exit()
		})
	}
}

// TestWaitHandleCancelUnnotifiedAccounting pins the companion schedule:
// cancelling a handle that was never notified must release its slot in
// the entry's unnotified count even though Cancel closes the ready
// channel (the courtesy close is not a delivered notification).
func TestWaitHandleCancelUnnotifiedAccounting(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	w1 := need.Arm(BindInt("k", 1))
	w2 := need.Arm(BindInt("k", 1)) // same entry
	w1.Cancel()                     // never notified
	m.Do(func() { count.Set(1) })
	waitTimeout(t, 10*time.Second, "survivor handle", func() { <-w2.Ready() })
	if err := w2.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	m.Exit()
	// The entry parks on the inactive list with its counts; reuse it
	// while true and make sure relay delivery still works.
	w3 := need.Arm(BindInt("k", 1))
	m.Do(func() {})
	waitTimeout(t, 10*time.Second, "reused-entry handle", func() { <-w3.Ready() })
	if err := w3.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	m.Exit()
	if p := pendingSignals(m); p != 0 {
		t.Errorf("pending = %d", p)
	}
	if got := m.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d", got)
	}
}

// TestArmFuncAcrossMechanisms drives the handle surface through the
// Mechanism interface on all three monitor types, checking the shared
// arms/claims/futile-claims accounting and handle leak freedom.
func TestArmFuncAcrossMechanisms(t *testing.T) {
	mon := New()
	flag := mon.NewInt("flag", 0)
	exp := NewExplicit()
	side := exp.NewCond()
	base := NewBaseline()

	var expFlag, baseFlag int
	cases := []struct {
		name  string
		mech  Mechanism
		pred  func() bool
		set   func()
		unset func()
	}{
		{"autosynch", mon, func() bool { return flag.Get() == 1 }, func() { flag.Set(1) }, func() { flag.Set(0) }},
		{"baseline", base, func() bool { return baseFlag == 1 }, func() { baseFlag = 1 }, func() { baseFlag = 0 }},
		{"explicit", exp, func() bool { return expFlag == 1 }, func() { expFlag = 1; side.Broadcast() }, func() { expFlag = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// TryFunc: the non-blocking degenerate case.
			c.mech.Enter()
			if c.mech.TryFunc(c.pred) {
				t.Error("TryFunc true before set")
			}
			c.set()
			if !c.mech.TryFunc(c.pred) {
				t.Error("TryFunc false after set")
			}
			c.unset()
			c.mech.Exit()

			// Arm, notify, falsify, futile-claim, re-notify, claim.
			w := c.mech.ArmFunc(c.pred)
			if got := c.mech.Waiting(); got != 1 {
				t.Fatalf("Waiting() = %d after ArmFunc", got)
			}
			c.mech.Do(c.set)
			waitTimeout(t, 10*time.Second, c.name+" handle ready", func() { <-w.Ready() })
			c.mech.Do(c.unset)
			if err := w.Claim(); !errors.Is(err, ErrNotReady) {
				t.Fatalf("Claim after falsify = %v, want ErrNotReady", err)
			}
			c.mech.Do(c.set)
			waitTimeout(t, 10*time.Second, c.name+" re-armed ready", func() { <-w.Ready() })
			if err := w.Claim(); err != nil {
				t.Fatalf("Claim = %v", err)
			}
			if !c.pred() {
				t.Error("claimed with predicate false")
			}
			c.unset()
			c.mech.Exit()

			// Cancel path and leak check.
			w2 := c.mech.ArmFunc(c.pred)
			w2.Cancel()
			if err := w2.Err(); !errors.Is(err, ErrCancelled) {
				t.Errorf("Err after Cancel = %v", err)
			}
			if got := c.mech.Waiting(); got != 0 {
				t.Errorf("Waiting() = %d after claim+cancel, want 0", got)
			}
			s := c.mech.Stats()
			if s.Arms < 2 || s.Claims < 1 || s.FutileClaims < 1 {
				t.Errorf("handle stats not accounted: arms=%d claims=%d futile=%d",
					s.Arms, s.Claims, s.FutileClaims)
			}
			c.mech.ResetStats()
		})
	}
}

// TestCondArmSignalRouting checks that a Cond.Arm handle is notified by
// its own condition's Signal and not by an unrelated condition's.
func TestCondArmSignalRouting(t *testing.T) {
	e := NewExplicit()
	mine := e.NewCond()
	other := e.NewCond()
	state := 0

	w := mine.Arm(func() bool { return state >= 1 })
	e.Do(func() { state = 1; other.Signal() })
	// other's Signal reaches generic any-waiters only; this handle is
	// condition-routed and must stay quiet.
	select {
	case <-w.Ready():
		t.Fatal("handle notified by an unrelated condition")
	case <-time.After(20 * time.Millisecond):
	}
	e.Do(func() { mine.Signal() })
	waitTimeout(t, 10*time.Second, "own-condition signal", func() { <-w.Ready() })
	if err := w.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	e.Exit()
	if got := e.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d, want 0", got)
	}
}

// TestBlockingWaitIsHandleWrapper pins the redesign's claim that blocking
// waits and handles share one waiter representation: a parked Await and
// an armed handle on the same entry both count in Waiting, and the relay
// search treats them identically — the single signal lands on either, and
// completing that waiter (wake-and-exit or claim-and-exit) relays to the
// other while the predicate stays true.
func TestBlockingWaitIsHandleWrapper(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= 1")

	w := need.Arm()
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		m.Enter()
		if err := m.AwaitPred(need); err != nil {
			t.Error(err)
		}
		count.Add(-1)
		m.Exit()
	}()
	claimed := make(chan struct{})
	go func() {
		defer close(claimed)
		for {
			<-w.Ready()
			err := w.Claim()
			if err == nil {
				count.Add(-1)
				m.Exit()
				return
			}
			if !errors.Is(err, ErrNotReady) {
				t.Errorf("Claim = %v", err)
				return
			}
		}
	}()
	waitParked(t, m, 2)
	m.Do(func() { count.Set(2) }) // one unit for each waiter
	waitTimeout(t, 10*time.Second, "blocking waiter", func() { <-blocked })
	waitTimeout(t, 10*time.Second, "handle claimer", func() { <-claimed })
	if p := pendingSignals(m); p != 0 {
		t.Errorf("pending = %d", p)
	}
	if got := m.Waiting(); got != 0 {
		t.Errorf("Waiting() = %d", got)
	}
}

// TestCondSignalRedirect pins Java Condition's redirect rule on armed
// handles: Cond.Signal notifies one of two eligible handles, and that
// handle then leaves without claiming — by Cancel (as Select cancels its
// losers) or by its Deadline. The signal it never consumed must pass to
// the other handle, or that handle waits forever on a true predicate.
func TestCondSignalRedirect(t *testing.T) {
	cases := []struct {
		name  string
		leave func(t *testing.T, w *Wait)
		want  error
	}{
		{"cancel", func(t *testing.T, w *Wait) { w.Cancel() }, ErrCancelled},
		{"deadline", func(t *testing.T, w *Wait) {
			w.Deadline(time.Now())
			testutil.WaitFor(t, 5*time.Second, 0, func() bool { return w.Err() != nil },
				"notified handle expired")
		}, ErrDeadline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExplicit()
			defer testutil.NoLeaks(t, e)()
			c := e.NewCond()
			state := 0
			pred := func() bool { return state >= 1 }
			a, b := c.Arm(pred), c.Arm(pred)
			e.Do(func() { state = 1; c.Signal() })

			notified, other := a, b
			select {
			case <-a.Ready():
			case <-b.Ready():
				notified, other = b, a
			default:
				t.Fatal("Signal notified no handle")
			}
			select {
			case <-other.Ready():
				t.Fatal("one Signal notified both handles")
			default:
			}
			tc.leave(t, notified)
			if err := notified.Err(); !errors.Is(err, tc.want) {
				t.Fatalf("leaving handle Err = %v, want %v", err, tc.want)
			}
			// The redirect runs under the monitor lock as the handle
			// leaves, so the other handle is notified by now.
			select {
			case <-other.Ready():
			default:
				t.Fatal("the unconsumed signal was lost: the other handle was never notified")
			}
			if err := other.Claim(); err != nil {
				t.Fatalf("Claim = %v", err)
			}
			e.Exit()
			if s := e.Stats(); s.Signals != 1 || s.Abandons != 1 {
				t.Errorf("Signals = %d Abandons = %d, want 1 and 1", s.Signals, s.Abandons)
			}
		})
	}
}
