package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// pendingSignals reads the condition manager's in-flight signal count; the
// cancellation paths must always reconcile it back to zero, or the relay
// search wedges forever.
func pendingSignals(m *Monitor) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cm.pending
}

func TestAwaitCtxAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	m := New()
	m.NewInt("count", 5)
	m.Enter()
	// A done context wins even when the predicate is already true.
	if err := m.AwaitCtx(ctx, "count >= 1"); !errors.Is(err, context.Canceled) {
		t.Errorf("monitor: err = %v, want context.Canceled", err)
	}
	if err := m.AwaitFuncCtx(ctx, func() bool { return true }); !errors.Is(err, context.Canceled) {
		t.Errorf("monitor func: err = %v", err)
	}
	m.Exit()

	b := NewBaseline()
	b.Enter()
	if err := b.AwaitCtx(ctx, func() bool { return true }); !errors.Is(err, context.Canceled) {
		t.Errorf("baseline: err = %v", err)
	}
	b.Exit()

	e := NewExplicit()
	c := e.NewCond()
	e.Enter()
	if err := c.AwaitCtx(ctx, func() bool { return true }); !errors.Is(err, context.Canceled) {
		t.Errorf("explicit cond: err = %v", err)
	}
	if err := e.AwaitFuncCtx(ctx, func() bool { return true }); !errors.Is(err, context.Canceled) {
		t.Errorf("explicit func: err = %v", err)
	}
	e.Exit()
}

func TestAwaitCtxCancelAbandonsWaiter(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		m.Enter()
		err := m.AwaitPredCtx(ctx, need, BindInt("k", 5))
		m.Exit()
		errCh <- err
	}()
	waitParked(t, m, 1)
	cancel()
	var err error
	waitTimeout(t, 10*time.Second, "cancelled waiter", func() { err = <-errCh })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if w := m.Waiting(); w != 0 {
		t.Errorf("Waiting() = %d after abandonment", w)
	}
	if s := m.Stats(); s.Abandons != 1 {
		t.Errorf("Abandons = %d, want 1", s.Abandons)
	}
	// The abandoned entry must be fully unregistered from the predicate
	// table and the tag structures (it parks on the inactive list).
	if active, inactive, groups, none := m.DebugCounts(); active != 0 || groups != 0 || none != 0 || inactive != 1 {
		t.Errorf("counts after abandonment: active=%d inactive=%d groups=%d none=%d, want 0/1/0/0",
			active, inactive, groups, none)
	}
	if p := pendingSignals(m); p != 0 {
		t.Errorf("pending = %d after abandonment", p)
	}

	// The monitor must still be fully functional: the same predicate is
	// reactivated from the inactive list and signaled normally.
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Enter()
		if err := m.AwaitPred(need, BindInt("k", 5)); err != nil {
			t.Error(err)
		}
		m.Exit()
	}()
	waitParked(t, m, 1)
	m.Do(func() { count.Set(5) })
	waitTimeout(t, 10*time.Second, "post-abandon waiter", func() { <-done })
}

func TestAwaitCtxDeadline(t *testing.T) {
	m := New()
	m.NewInt("count", 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	m.Enter()
	err := m.AwaitCtx(ctx, "count >= k", BindInt("k", 1))
	m.Exit()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestAwaitFuncCtxCancelCleansNoneList(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		m.Enter()
		err := m.AwaitFuncCtx(ctx, func() bool { return count.Get() >= 3 })
		m.Exit()
		errCh <- err
	}()
	waitParked(t, m, 1)
	cancel()
	var err error
	waitTimeout(t, 10*time.Second, "cancelled func waiter", func() { err = <-errCh })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if _, _, _, none := m.DebugCounts(); none != 0 {
		t.Errorf("abandoned func entry leaked: none = %d", none)
	}
}

// TestAwaitCtxRelayInvarianceUnderAbandonment is the adversarial schedule
// for the relay rule: two waiters whose predicates become true in the same
// critical section that cancels one of them. The single relayed signal may
// land on either waiter, and the cancellation's wake-up races with it. In
// every interleaving the surviving waiter must be released — either it got
// the signal directly, or the abandoning waiter reconciled the orphaned
// signal and re-relayed. Run with -race; a lost wake-up hangs the
// iteration and a bookkeeping slip shows up as pending != 0.
func TestAwaitCtxRelayInvarianceUnderAbandonment(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	iters := 150
	if testing.Short() {
		iters = 25
	}
	for iter := 0; iter < iters; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		cErr := make(chan error, 1)
		survivor := make(chan struct{})
		go func() {
			m.Enter()
			err := m.AwaitPredCtx(ctx, need, BindInt("k", 1))
			m.Exit()
			cErr <- err
		}()
		go func() {
			defer close(survivor)
			m.Enter()
			if err := m.AwaitPred(need, BindInt("k", 2)); err != nil {
				t.Error(err)
			}
			m.Exit()
		}()
		waitParked(t, m, 2)

		// Make both predicates true and cancel the first waiter inside one
		// critical section: Exit relays exactly one signal, and the
		// context's give-up callback races it for the monitor lock.
		m.Enter()
		count.Set(2)
		cancel()
		m.Exit()

		waitTimeout(t, 10*time.Second, "surviving waiter", func() { <-survivor })
		var err error
		waitTimeout(t, 10*time.Second, "cancelled waiter", func() { err = <-cErr })
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iter %d: cancelled waiter returned %v", iter, err)
		}
		if p := pendingSignals(m); p != 0 {
			t.Fatalf("iter %d: pending = %d, relay chain corrupted", iter, p)
		}
		m.Do(func() { count.Set(0) })
	}
}

// TestAwaitCtxSharedEntryAbandonment cancels one of several waiters that
// share a single predicate entry: the cancelled waiter may hold the one
// relayed signal, and only unconsumed-signal accounting keeps the
// survivors correct.
func TestAwaitCtxSharedEntryAbandonment(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	iters := 100
	if testing.Short() {
		iters = 20
	}
	for iter := 0; iter < iters; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		cErr := make(chan error, 1)
		var survivors sync.WaitGroup
		for s := 0; s < 2; s++ {
			survivors.Add(1)
			go func() {
				defer survivors.Done()
				m.Enter()
				if err := m.AwaitPred(need, BindInt("k", 3)); err != nil {
					t.Error(err)
				}
				count.Add(-1) // keep the predicate true for the co-waiter
				m.Exit()
			}()
		}
		go func() {
			m.Enter()
			err := m.AwaitPredCtx(ctx, need, BindInt("k", 3)) // same entry
			m.Exit()
			cErr <- err
		}()
		waitParked(t, m, 3)
		m.Enter()
		count.Set(4) // stays >= 3 after each survivor's decrement
		cancel()
		m.Exit()
		waitTimeout(t, 10*time.Second, "shared-entry survivors", func() { survivors.Wait() })
		<-cErr
		if p := pendingSignals(m); p != 0 {
			t.Fatalf("iter %d: pending = %d", iter, p)
		}
		m.Do(func() { count.Set(0) })
	}
}

// TestAwaitCtxStress churns waiters with randomly cancelled contexts under
// a running producer; run with -race. Every waiter must terminate, no
// signal may stay in flight, and the monitor must end empty.
func TestAwaitCtxStress(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	need := m.MustCompile("count >= k")

	const waiters = 60
	var cancelled, released atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 {
				tctx, cancel := context.WithTimeout(ctx, time.Duration(i%7)*time.Millisecond)
				defer cancel()
				ctx = tctx
			}
			m.Enter()
			err := m.AwaitPredCtx(ctx, need, BindInt("k", int64(i%9+1)))
			switch {
			case err == nil:
				count.Add(int64(-(i%9 + 1) / 2)) // consume some, keep churn
				released.Add(1)
			case errors.Is(err, context.DeadlineExceeded):
				cancelled.Add(1)
			default:
				t.Errorf("waiter %d: %v", i, err)
			}
			m.Exit()
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
	waitTimeout(t, 30*time.Second, "stress waiters", func() { wg.Wait() })
	close(stop)
	if got := cancelled.Load() + released.Load(); got != waiters {
		t.Errorf("accounted waiters = %d, want %d", got, waiters)
	}
	if p := pendingSignals(m); p != 0 {
		t.Errorf("pending = %d at end of stress", p)
	}
	if w := m.Waiting(); w != 0 {
		t.Errorf("Waiting() = %d at end of stress", w)
	}
	t.Logf("stress: %d released, %d cancelled, stats: %s", released.Load(), cancelled.Load(), m.Stats().String())
}

func TestBaselineAwaitCtx(t *testing.T) {
	b := NewBaseline()
	state := 0
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		b.Enter()
		err := b.AwaitCtx(ctx, func() bool { return state >= 2 })
		b.Exit()
		errCh <- err
	}()
	testWaitParkedMech(t, b, 1)
	cancel()
	var err error
	waitTimeout(t, 10*time.Second, "baseline cancelled", func() { err = <-errCh })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if s := b.Stats(); s.Abandons != 1 {
		t.Errorf("Abandons = %d", s.Abandons)
	}
	// The baseline still works afterwards.
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Enter()
		b.Await(func() bool { return state >= 2 })
		b.Exit()
	}()
	testWaitParkedMech(t, b, 1)
	b.Do(func() { state = 2 })
	waitTimeout(t, 10*time.Second, "baseline waiter", func() { <-done })
}

func TestExplicitCondAwaitCtx(t *testing.T) {
	e := NewExplicit()
	c := e.NewCond()
	state := 0
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		e.Enter()
		err := c.AwaitCtx(ctx, func() bool { return state >= 1 })
		e.Exit()
		errCh <- err
	}()
	// A second, signal-released waiter on the same condition: the
	// cancellation broadcast must not corrupt it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Enter()
		c.Await(func() bool { return state >= 1 })
		e.Exit()
	}()
	testWaitParkedMech(t, e, 2)
	cancel()
	var err error
	waitTimeout(t, 10*time.Second, "explicit cancelled", func() { err = <-errCh })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	e.Do(func() { state = 1; c.Signal() })
	waitTimeout(t, 10*time.Second, "explicit survivor", func() { <-done })
	if s := e.Stats(); s.Abandons != 1 {
		t.Errorf("Abandons = %d", s.Abandons)
	}
}

// TestCtxWaitAddsNoGoroutine: a parked ctx wait costs its own goroutine
// and nothing more on every mechanism — the context's give-up callback is
// registered with context.AfterFunc, which starts no goroutine until the
// context is done. Cancelling releases every waiter and leaves nothing
// behind.
func TestCtxWaitAddsNoGoroutine(t *testing.T) {
	const n = 100
	cases := []struct {
		name string
		mech Mechanism
	}{
		{"autosynch", New()},
		{"baseline", NewBaseline()},
		{"explicit", NewExplicit()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			before := goroutineIDs()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				go func() {
					tc.mech.Enter()
					err := tc.mech.AwaitFuncCtx(ctx, func() bool { return false })
					tc.mech.Exit()
					errs <- err
				}()
			}
			testWaitParkedMech(t, tc.mech, n)
			if added := goroutinesSince(before); added != n {
				t.Errorf("%d parked ctx waits added %d goroutines, want %d (no watcher per wait)", n, added, n)
			}
			cancel()
			for i := 0; i < n; i++ {
				var err error
				waitTimeout(t, 10*time.Second, "cancelled waiter", func() { err = <-errs })
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			}
		})
	}
}

// goroutineIDs returns the IDs of the live goroutines, so a test can count
// the goroutines it started even while an earlier test's stragglers exit.
func goroutineIDs() map[string]bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "goroutine "); ok {
			ids[strings.Fields(rest)[0]] = true
		}
	}
	return ids
}

// goroutinesSince counts the live goroutines whose IDs are not in before.
func goroutinesSince(before map[string]bool) int {
	added := 0
	for id := range goroutineIDs() {
		if !before[id] {
			added++
		}
	}
	return added
}

// testWaitParkedMech polls any Mechanism's Waiting count.
func testWaitParkedMech(t *testing.T, mech Mechanism, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for mech.Waiting() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiter(s) never parked (have %d)", n, mech.Waiting())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestMechanismInterface drives all three monitor types through the
// Mechanism interface alone: a generic waiter parks on a closure predicate
// and a generic driver flips the state. The explicit monitor needs one
// manual signal — issued here through a condition created on the side,
// which is exactly its contract (AwaitFunc wakes on any manual signal).
// The give-up rows then abandon a parked wait mid-wait, by its context
// and by its deadline, under one counting rule on every mechanism: a
// give-up counts one Abandon (plus one Expired for a deadline) and never
// a wake-up, leaves nothing registered, and a fresh waiter is still
// served.
func TestMechanismInterface(t *testing.T) {
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
	never := func() bool { return false }
	giveUps := []struct {
		name          string
		await         func(mech Mechanism, ctx context.Context) error
		cancelMidWait bool
		want          error
		expired       uint64
	}{
		{"ctx-cancel", func(mech Mechanism, ctx context.Context) error {
			return mech.AwaitFuncCtx(ctx, never)
		}, true, context.Canceled, 0},
		{"deadline", func(mech Mechanism, _ context.Context) error {
			return mech.AwaitFuncTimeout(20*time.Millisecond, never)
		}, false, ErrDeadline, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				c.mech.Enter()
				c.mech.AwaitFunc(c.pred)
				c.mech.Exit()
			}()
			testWaitParkedMech(t, c.mech, 1)
			c.mech.Do(c.set)
			waitTimeout(t, 10*time.Second, c.name+" generic waiter", func() { <-done })
			if c.mech.Stats().Awaits == 0 {
				t.Error("no awaits recorded through the interface")
			}
			c.mech.ResetStats()
			if c.mech.Stats().Awaits != 0 {
				t.Error("ResetStats through the interface failed")
			}

			// And the ctx variant with a pre-cancelled context.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			c.mech.Enter()
			if err := c.mech.AwaitFuncCtx(ctx, func() bool { return false }); !errors.Is(err, context.Canceled) {
				t.Errorf("AwaitFuncCtx = %v", err)
			}
			c.mech.Exit()

			for _, g := range giveUps {
				t.Run(g.name, func(t *testing.T) {
					c.mech.ResetStats()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					errCh := make(chan error, 1)
					go func() {
						c.mech.Enter()
						err := g.await(c.mech, ctx)
						c.mech.Exit()
						errCh <- err
					}()
					if g.cancelMidWait {
						testWaitParkedMech(t, c.mech, 1)
						cancel()
					}
					var err error
					waitTimeout(t, 10*time.Second, g.name+" waiter", func() { err = <-errCh })
					if !errors.Is(err, g.want) {
						t.Fatalf("err = %v, want %v", err, g.want)
					}
					s := c.mech.Stats()
					if s.Abandons != 1 || s.Expired != g.expired || s.Wakeups != 0 {
						t.Errorf("Abandons = %d Expired = %d Wakeups = %d, want 1, %d, 0",
							s.Abandons, s.Expired, s.Wakeups, g.expired)
					}
					if w := c.mech.Waiting(); w != 0 {
						t.Errorf("Waiting() = %d after the give-up", w)
					}

					// A fresh waiter is still served.
					c.mech.Do(c.unset)
					served := make(chan struct{})
					go func() {
						defer close(served)
						c.mech.Enter()
						c.mech.AwaitFunc(c.pred)
						c.mech.Exit()
					}()
					testWaitParkedMech(t, c.mech, 1)
					c.mech.Do(c.set)
					waitTimeout(t, 10*time.Second, "fresh waiter after "+g.name, func() { <-served })
				})
			}
		})
	}
}
