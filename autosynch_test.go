package autosynch_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	autosynch "repro"
	"repro/internal/testutil"
)

// TestQuickstart exercises the package-documentation example end to end.
func TestQuickstart(t *testing.T) {
	m := autosynch.New()
	count := m.NewInt("count", 0)
	m.NewInt("cap", 4)

	var wg sync.WaitGroup
	const items = 100
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		for i := 0; i < items; i++ {
			m.Enter()
			if err := m.Await("count < cap"); err != nil {
				t.Error(err)
			}
			count.Add(1)
			m.Exit()
		}
	}()
	go func() { // consumer taking 2 at a time
		defer wg.Done()
		for i := 0; i < items/2; i++ {
			m.Enter()
			if err := m.Await("count >= num", autosynch.Bind("num", 2)); err != nil {
				t.Error(err)
			}
			count.Add(-2)
			m.Exit()
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("quickstart deadlocked")
	}
	if s := m.Stats(); s.Broadcasts != 0 {
		t.Errorf("AutoSynch used %d broadcasts; the public API must never signalAll", s.Broadcasts)
	}
}

func TestFacadeReExports(t *testing.T) {
	if err := func() error {
		m := autosynch.New(autosynch.WithoutTagging(), autosynch.WithInactiveLimit(4))
		m.NewInt("x", 0)
		m.Enter()
		defer m.Exit()
		return m.Await("x >= n", autosynch.Bind("n", 0))
	}(); err != nil {
		t.Fatal(err)
	}

	m := autosynch.New()
	m.NewBool("flagged", true)
	m.Enter()
	if err := m.Await("ok", autosynch.BindBool("ok", true)); err != nil {
		t.Fatal(err)
	}
	err := m.Await("never", autosynch.BindBool("never", false))
	if !errors.Is(err, autosynch.ErrNeverTrue) {
		t.Errorf("err = %v, want ErrNeverTrue", err)
	}
	m.Exit()

	b := autosynch.NewBaseline()
	b.Do(func() {})
	e := autosynch.NewExplicit()
	c := e.NewCond()
	e.Do(func() { c.Signal(); c.Broadcast() })
	if s := e.Stats(); s.Signals != 1 || s.Broadcasts != 1 {
		t.Errorf("explicit stats = %s", s)
	}
}

// TestCompiledPredicateFacade exercises the compiled and typed-builder
// APIs through the public package: Compile/MustCompileExpr, AwaitPred,
// Predicate.Await, and the PredicateError/ErrNeverTrue error shapes.
func TestCompiledPredicateFacade(t *testing.T) {
	m := autosynch.New()
	count := m.NewInt("count", 0)
	capacity := m.NewInt("cap", 8)

	hasRoom := m.MustCompileExpr(
		count.Expr().Plus(autosynch.Local("k")).AtMost(capacity.Expr()))
	hasItems, err := m.Compile("count >= num")
	if err != nil {
		t.Fatal(err)
	}

	const items = 120
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < items/2; i++ {
			m.Enter()
			if err := hasRoom.Await(autosynch.Bind("k", 2)); err != nil {
				t.Error(err)
			}
			count.Add(2)
			m.Exit()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < items/2; i++ {
			m.Enter()
			if err := m.AwaitPred(hasItems, autosynch.Bind("num", 2)); err != nil {
				t.Error(err)
			}
			count.Add(-2)
			m.Exit()
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("compiled-predicate workload deadlocked")
	}
	if s := m.Stats(); s.Broadcasts != 0 {
		t.Errorf("broadcasts = %d", s.Broadcasts)
	}

	// Error shapes through the facade.
	m.Enter()
	err = m.AwaitPred(hasItems) // missing binding
	var perr *autosynch.PredicateError
	if !errors.As(err, &perr) {
		t.Errorf("bind error %T is not a *PredicateError", err)
	}
	err = m.AwaitPred(hasItems, autosynch.Bind("num", -1), autosynch.Bind("num", -1))
	if !errors.As(err, &perr) {
		t.Errorf("duplicate-binding error %T is not a *PredicateError", err)
	}
	m.Exit()
}

// TestAwaitCtxFacade checks the documented AwaitCtx contract through the
// public API: ctx.Err() on cancellation, the monitor still held, and the
// relay chain intact afterwards.
func TestAwaitCtxFacade(t *testing.T) {
	m := autosynch.New()
	count := m.NewInt("count", 0)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		m.Enter()
		err := m.AwaitCtx(ctx, "count >= k", autosynch.Bind("k", 10))
		count.Add(1) // still inside the monitor after cancellation
		m.Exit()
		errCh <- err
	}()
	testutil.WaitFor(t, 10*time.Second, 0, func() bool { return m.Waiting() == 1 },
		"ctx waiter parked")
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	if s := m.Stats(); s.Abandons != 1 {
		t.Errorf("Abandons = %d, want 1", s.Abandons)
	}

	// A fresh waiter on the same monitor still gets relayed to.
	released := make(chan struct{})
	go func() {
		defer close(released)
		m.Enter()
		if err := m.Await("count >= k", autosynch.Bind("k", 3)); err != nil {
			t.Error(err)
		}
		m.Exit()
	}()
	testutil.WaitFor(t, 10*time.Second, 0, func() bool { return m.Waiting() == 1 },
		"post-cancel waiter parked")
	m.Do(func() { count.Add(3) })
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("relay chain broken after abandonment")
	}
}

// TestMechanismFacade drives the three monitor types through the shared
// interface re-exported by the facade.
func TestMechanismFacade(t *testing.T) {
	mechs := []autosynch.Mechanism{autosynch.New(), autosynch.NewBaseline(), autosynch.NewExplicit()}
	for _, mech := range mechs {
		mech.Do(func() {})
		mech.Enter()
		mech.AwaitFunc(func() bool { return true }) // already true: fast path
		mech.Exit()
		if mech.Stats().Awaits != 1 {
			t.Errorf("%T: awaits = %d", mech, mech.Stats().Awaits)
		}
		if mech.Waiting() != 0 {
			t.Errorf("%T: waiting = %d", mech, mech.Waiting())
		}
		mech.ResetStats()
	}
}
