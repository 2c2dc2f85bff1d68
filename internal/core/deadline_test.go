package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// deadlineMechs builds one instance of each mechanism for the
// cross-mechanism conformance runs.
func deadlineMechs() []struct {
	name string
	mech Mechanism
} {
	return []struct {
		name string
		mech Mechanism
	}{
		{"autosynch", New()},
		{"autosynch-t", New(WithoutTagging())},
		{"baseline", NewBaseline()},
		{"explicit", NewExplicit()},
	}
}

// TestAwaitDeadlineExpires: on every mechanism, a deadline'd wait on a
// never-true predicate returns ErrDeadline, holding the monitor, fully
// drained, with Expired and Abandons both counted.
func TestAwaitDeadlineExpires(t *testing.T) {
	for _, tc := range deadlineMechs() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			tc.mech.Enter()
			err := tc.mech.AwaitFuncTimeout(5*time.Millisecond, func() bool { return false })
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
			// The wait returned holding the monitor: Exit must not panic.
			tc.mech.Exit()
			s := tc.mech.Stats()
			if s.Expired != 1 {
				t.Errorf("Expired = %d, want 1", s.Expired)
			}
			if s.Abandons != 1 {
				t.Errorf("Abandons = %d, want 1 (every expiry is an abandon)", s.Abandons)
			}
		})
	}
}

// TestAwaitDeadlineAlreadyPassed: a deadline in the past fails before
// the predicate is even consulted — no park, no registration, Expired
// counted without an Abandon (nothing was registered to abandon).
func TestAwaitDeadlineAlreadyPassed(t *testing.T) {
	for _, tc := range deadlineMechs() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			evaluated := false
			tc.mech.Enter()
			err := tc.mech.AwaitFuncDeadline(time.Now().Add(-time.Second), func() bool {
				evaluated = true
				return true
			})
			tc.mech.Exit()
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
			if evaluated {
				t.Error("predicate evaluated despite the deadline having passed")
			}
			s := tc.mech.Stats()
			if s.Expired != 1 || s.Abandons != 0 {
				t.Errorf("Expired = %d Abandons = %d, want 1 and 0", s.Expired, s.Abandons)
			}
		})
	}
}

// TestAwaitDeadlineEligibleCompletes: a deadline'd wait whose predicate
// becomes true well before the deadline completes normally, and the
// timer is disarmed (no Expired, and the wheel goroutine drains — the
// NoLeaks baseline would catch a straggler).
func TestAwaitDeadlineEligibleCompletes(t *testing.T) {
	m := New()
	mt := New(WithoutTagging())
	b := NewBaseline()
	e := NewExplicit()
	side := e.NewCond() // explicit monitors wake generic waiters on a manual signal
	cases := []struct {
		name string
		mech Mechanism
		wake func()
	}{
		{"autosynch", m, func() { m.Do(func() {}) }},
		{"autosynch-t", mt, func() { mt.Do(func() {}) }},
		{"baseline", b, func() { b.Do(func() {}) }},
		{"explicit", e, func() { e.Do(func() { side.Broadcast() }) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			var flag atomic.Bool
			done := make(chan error, 1)
			go func() {
				tc.mech.Enter()
				err := tc.mech.AwaitFuncTimeout(10*time.Second, func() bool { return flag.Load() })
				tc.mech.Exit()
				done <- err
			}()
			testutil.WaitFor(t, 5*time.Second, 0, func() bool { return tc.mech.Waiting() == 1 },
				"waiter parked on %s", tc.name)
			flag.Store(true)
			tc.wake()
			if err := <-done; err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
			if s := tc.mech.Stats(); s.Expired != 0 {
				t.Errorf("Expired = %d, want 0", s.Expired)
			}
		})
	}
}

// TestWaitHandleDeadline: an armed handle whose deadline passes fires
// Ready, reports ErrDeadline from Claim and Err, and is unregistered
// with the usual repair. On every mechanism.
func TestWaitHandleDeadline(t *testing.T) {
	for _, tc := range deadlineMechs() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			w := tc.mech.ArmFunc(func() bool { return false }).Timeout(5 * time.Millisecond)
			select {
			case <-w.Ready():
			case <-time.After(5 * time.Second):
				t.Fatal("Ready did not fire on expiry")
			}
			if err := w.Claim(); !errors.Is(err, ErrDeadline) {
				t.Fatalf("Claim = %v, want ErrDeadline", err)
			}
			if err := w.Err(); !errors.Is(err, ErrDeadline) {
				t.Fatalf("Err = %v, want ErrDeadline", err)
			}
			if s := tc.mech.Stats(); s.Expired != 1 {
				t.Errorf("Expired = %d, want 1", s.Expired)
			}
		})
	}
}

// TestWaitHandleDeadlineClaimWins: a handle claimed before its (distant)
// deadline disarms the timer; nothing expires afterwards.
func TestWaitHandleDeadlineClaimWins(t *testing.T) {
	m := New()
	defer testutil.NoLeaks(t, m)()
	tokens := m.NewInt("tokens", 1)
	p := m.MustCompile("tokens >= 1")
	w := p.Arm().Deadline(time.Now().Add(10 * time.Second))
	<-w.Ready()
	if err := w.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	tokens.Add(-1)
	m.Exit()
	if s := m.Stats(); s.Expired != 0 {
		t.Errorf("Expired = %d, want 0", s.Expired)
	}
}

// TestDeadlineRelayHandoffOnExpiry pins the orphaned-signal repair for
// expiry, the exact shape cancellation repair exists for: an armed
// handle holds the monitor's single in-flight relay signal when its
// deadline fires; the expiry must reconcile the signal and relay onward,
// or the parked second waiter would wait forever on a true predicate.
func TestDeadlineRelayHandoffOnExpiry(t *testing.T) {
	m := New()
	defer testutil.NoLeaks(t, m)()
	tokens := m.NewInt("tokens", 0)
	p := m.MustCompile("tokens >= 1")

	// Handle first: it is the entry's first unnotified waiter, so the
	// relay below addresses it, not the blocking waiter.
	w := p.Arm()
	done := make(chan error, 1)
	go func() {
		m.Enter()
		err := p.Await()
		tokens.Add(-1)
		m.Exit()
		done <- err
	}()
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return m.Waiting() == 2 },
		"handle and blocking waiter registered")

	m.Do(func() { tokens.Set(1) }) // Exit relays: the signal lands on the handle
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return m.PendingSignals() == 1 },
		"in-flight signal addressed to the handle")

	// The handle expires while holding the signal. Repair must hand it
	// to the blocking waiter, whose predicate is true.
	w.Deadline(time.Now().Add(time.Millisecond))
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocking waiter err = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocking waiter starved: expiry did not relay the orphaned signal")
	}
	if errors.Is(w.Err(), ErrDeadline) == false {
		t.Errorf("handle Err = %v, want ErrDeadline", w.Err())
	}
	if n := m.PendingSignals(); n != 0 {
		t.Errorf("PendingSignals = %d, want 0", n)
	}
	checkHotList(t, m)
}

// TestAwaitDeadlineExpiryWinsRace: once a blocking waiter is woken by
// its deadline, ErrDeadline is returned even if the predicate has just
// become true — the same priority rule as cancellation, pinned here on
// the monitor path (the predicate turns true after expiry is already
// latched but before the waiter runs).
func TestAwaitDeadlineExpiryWinsRace(t *testing.T) {
	m := New()
	defer testutil.NoLeaks(t, m)()
	tokens := m.NewInt("tokens", 0)
	done := make(chan error, 1)
	go func() {
		m.Enter()
		err := m.AwaitDeadline(time.Now().Add(10*time.Millisecond), "tokens >= 1")
		m.Exit()
		done <- err
	}()
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return m.Waiting() == 1 }, "waiter parked")
	// Make the predicate true only after expiry has certainly latched.
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return m.Stats().Expired >= 1 || m.Waiting() == 0 },
		"deadline fired")
	m.Do(func() { tokens.Set(1) })
	err := <-done
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline (expiry latched before the predicate turned true)", err)
	}
}

// TestAwaitPredDeadlineAndStringForms smoke-tests the remaining deadline
// spellings: AwaitDeadline/AwaitTimeout (string), AwaitPredDeadline,
// Predicate.AwaitDeadline, Cond.AwaitDeadline, and the sharded keyed
// forms are covered in their own packages.
func TestAwaitDeadlineSpellings(t *testing.T) {
	m := New()
	defer testutil.NoLeaks(t, m)()
	m.NewInt("tokens", 0)
	p := m.MustCompile("tokens >= n")

	m.Enter()
	if err := m.AwaitTimeout(time.Millisecond, "tokens >= 1"); !errors.Is(err, ErrDeadline) {
		t.Fatalf("AwaitTimeout err = %v", err)
	}
	if err := m.AwaitPredDeadline(time.Now().Add(time.Millisecond), p, BindInt("n", 1)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("AwaitPredDeadline err = %v", err)
	}
	if err := p.AwaitDeadline(time.Now().Add(time.Millisecond), BindInt("n", 1)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Predicate.AwaitDeadline err = %v", err)
	}
	m.Exit()

	e := NewExplicit()
	defer testutil.NoLeaks(t, e)()
	c := e.NewCond()
	e.Enter()
	if err := c.AwaitTimeout(time.Millisecond, func() bool { return false }); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Cond.AwaitTimeout err = %v", err)
	}
	e.Exit()
}
