package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
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
// drained, with Expired and Abandons both counted — and never before its
// timeout.
func TestAwaitDeadlineExpires(t *testing.T) {
	for _, tc := range deadlineMechs() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			tc.mech.Enter()
			start := time.Now()
			err := tc.mech.AwaitFuncTimeout(5*time.Millisecond, func() bool { return false })
			elapsed := time.Since(start)
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
			if elapsed < 5*time.Millisecond {
				t.Errorf("expired after %v, before its 5ms timeout", elapsed)
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
// timer is disarmed (no Expired, and the NoLeaks baseline would catch a
// straggler).
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
// Ready, never before the deadline, reports ErrDeadline from Claim and
// Err, and is unregistered with the usual repair. On every mechanism.
func TestWaitHandleDeadline(t *testing.T) {
	for _, tc := range deadlineMechs() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			w := tc.mech.ArmFunc(func() bool { return false })
			start := time.Now()
			w.Timeout(5 * time.Millisecond)
			select {
			case <-w.Ready():
			case <-time.After(5 * time.Second):
				t.Fatal("Ready did not fire on expiry")
			}
			if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
				t.Errorf("Ready closed %v after Timeout, before its 5ms timeout", elapsed)
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

// TestWaitDeadlineReplaces: a second deadline replaces the first on every
// mechanism, whichever is nearer. A nearer one expires the handle; a
// farther one keeps it armed past the first.
func TestWaitDeadlineReplaces(t *testing.T) {
	never := func() bool { return false }
	for _, tc := range deadlineMechs() {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			nearer := tc.mech.ArmFunc(never).Timeout(time.Hour).Timeout(5 * time.Millisecond)
			waitTimeout(t, 10*time.Second, "expiry of the nearer second deadline", func() { <-nearer.Ready() })
			if err := nearer.Err(); !errors.Is(err, ErrDeadline) {
				t.Fatalf("nearer second deadline: Err = %v, want ErrDeadline", err)
			}

			farther := tc.mech.ArmFunc(never).Timeout(5 * time.Millisecond).Deadline(time.Now().Add(time.Hour))
			time.Sleep(100 * time.Millisecond)
			if err := farther.Err(); err != nil {
				t.Fatalf("farther second deadline: Err = %v after the replaced 5ms one, want nil", err)
			}
			select {
			case <-farther.Ready():
				t.Fatal("farther second deadline: Ready closed after the replaced 5ms one")
			default:
			}
			farther.Cancel()
			if s := tc.mech.Stats(); s.Expired != 1 {
				t.Errorf("Expired = %d, want 1", s.Expired)
			}
		})
	}
}

// TestDeadlineEndRecordsExpireBeforeCancel: a handle ends through one
// path on every mechanism. A Cancel records KCancel alone; an expiry
// records KExpire, then KCancel, and counts Expired beside the Abandon.
// The recorder is process-global, so no t.Parallel here.
func TestDeadlineEndRecordsExpireBeforeCancel(t *testing.T) {
	obs.Start(1 << 10)
	mon, base, exp := New(), NewBaseline(), NewExplicit()
	obs.Stop()
	never := func() bool { return false }
	for _, tc := range []struct {
		name string
		mech Mechanism
		ring *obs.Ring
	}{
		{"autosynch", mon, mon.rec},
		{"baseline", base, base.rec},
		{"explicit", exp, exp.rec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			cancelled := tc.mech.ArmFunc(never)
			cancelled.Cancel()
			expired := tc.mech.ArmFunc(never).Timeout(time.Millisecond)
			waitTimeout(t, 10*time.Second, "handle expiry", func() { <-expired.Ready() })
			ends := map[uint64][]obs.Kind{}
			for _, ev := range tc.ring.Snapshot() {
				if ev.Kind == obs.KExpire || ev.Kind == obs.KCancel {
					ends[ev.Seq] = append(ends[ev.Seq], ev.Kind)
				}
			}
			if got := ends[cancelled.seq]; !slices.Equal(got, []obs.Kind{obs.KCancel}) {
				t.Errorf("cancelled handle recorded %v, want [%v]", got, obs.KCancel)
			}
			if got := ends[expired.seq]; !slices.Equal(got, []obs.Kind{obs.KExpire, obs.KCancel}) {
				t.Errorf("expired handle recorded %v, want [%v %v]", got, obs.KExpire, obs.KCancel)
			}
			if s := tc.mech.Stats(); s.Expired != 1 || s.Abandons != 2 {
				t.Errorf("Expired = %d Abandons = %d, want 1 and 2", s.Expired, s.Abandons)
			}
		})
	}
}

// TestDeadlineAddsNoGoroutine: a pending deadline holds no goroutine on
// any mechanism. Handles armed with a deadline add none, and parked
// deadline waits add only their own. New goroutine IDs are counted, as in
// TestCtxWaitAddsNoGoroutine.
func TestDeadlineAddsNoGoroutine(t *testing.T) {
	const n = 100
	m := New()
	b := NewBaseline()
	e := NewExplicit()
	side := e.NewCond()
	cases := []struct {
		name string
		mech Mechanism
		wake func()
	}{
		{"autosynch", m, func() { m.Do(func() {}) }},
		{"baseline", b, func() { b.Do(func() {}) }},
		{"explicit", e, func() { e.Do(func() { side.Broadcast() }) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			var flag atomic.Bool
			before := goroutineIDs()
			handles := make([]*Wait, n)
			for i := range handles {
				handles[i] = tc.mech.ArmFunc(flag.Load).Timeout(time.Hour)
			}
			if added := goroutinesSince(before); added != 0 {
				t.Errorf("%d handles with a pending deadline added %d goroutines, want 0", n, added)
			}
			for _, w := range handles {
				w.Cancel()
			}

			before = goroutineIDs()
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				go func() {
					tc.mech.Enter()
					err := tc.mech.AwaitFuncDeadline(time.Now().Add(time.Hour), flag.Load)
					tc.mech.Exit()
					errs <- err
				}()
			}
			testWaitParkedMech(t, tc.mech, n)
			if added := goroutinesSince(before); added != n {
				t.Errorf("%d parked deadline waits added %d goroutines, want %d", n, added, n)
			}
			flag.Store(true)
			tc.wake()
			for i := 0; i < n; i++ {
				var err error
				waitTimeout(t, 10*time.Second, "released waiter", func() { err = <-errs })
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
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
	checkRelayState(t, m)
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

// TestDeadlineWaitNotReused: a blocking wait that armed a give-up trigger
// never lends its waiter to a later wait. The trigger can fire after the
// waiter's wake-up and before it disarms, while the waiter's own re-check
// holds the monitor; the trigger's callback then waits for the monitor,
// and once it has it would mark whatever wait the waiter serves by then.
// A standing handle keeps Waiting() at 1 or more, so the monitor keeps
// spare waiters. Each round one goroutine runs a give-up wait on f, whose
// second true evaluation, the re-check, outlasts the deadline (or runs
// the cancel), and then, still in the monitor, a plain wait on g, which
// must return nil, with g true, only once the test makes g true.
func TestDeadlineWaitNotReused(t *testing.T) {
	const rounds = 20
	for _, c := range []struct {
		name string
		// arm returns a round's give-up wait and what its re-check runs.
		arm func(m *Monitor) (giveUp func(f func() bool) error, recheck func())
	}{
		{"deadline", func(m *Monitor) (func(func() bool) error, func()) {
			return func(f func() bool) error { return m.AwaitFuncDeadline(time.Now().Add(5*time.Millisecond), f) },
				func() { time.Sleep(10 * time.Millisecond) }
		}},
		{"ctx", func(m *Monitor) (func(func() bool) error, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			return func(f func() bool) error { return m.AwaitFuncCtx(ctx, f) }, cancel
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := New()
			defer testutil.NoLeaks(t, m)()
			m.NewInt("x", 0)
			standing := m.MustCompile("x < 0").Arm()
			defer standing.Cancel()
			// Guarded by m: the test makes f and then g true; trues
			// counts f's true evaluations, and left is set once the give-up
			// wait has returned.
			var first, second, left bool
			var trues int
			var gaveUp uint64
			for r := range rounds {
				giveUp, recheck := c.arm(m)
				f := func() bool {
					if !first {
						return false
					}
					trues++
					if trues == 2 {
						recheck()
					}
					return true
				}
				g := func() bool { return second }
				m.Do(func() { first, second, left, trues = false, false, false, 0 })
				done := make(chan error, 1)
				go func() {
					m.Enter()
					defer m.Exit()
					if giveUp(f) != nil {
						gaveUp++ // the trigger won before the wake-up
					}
					left = true
					err := m.awaitFunc(nil, time.Time{}, g) // AwaitFunc, with its error
					if err == nil && !second {
						err = errors.New("returned before g held")
					}
					done <- err
				}()
				waitParked(t, m, 2)
				m.Do(func() { first = true })
				testutil.WaitFor(t, 5*time.Second, 0, func() bool {
					m.mu.Lock()
					defer m.mu.Unlock()
					return left
				}, "round %d: give-up wait returned", r)
				m.Do(func() { second = true })
				var err error
				waitTimeout(t, 5*time.Second, "plain wait", func() { err = <-done })
				if err != nil {
					t.Fatalf("round %d: plain wait after a give-up wait: %v", r, err)
				}
			}
			if abandons := m.Stats().Abandons; abandons != gaveUp {
				t.Errorf("%d abandons, want %d: only the give-up waits whose trigger won may abandon", abandons, gaveUp)
			}
		})
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
