package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// waitParked blocks until exactly n goroutines are parked inside the
// monitor — the event-driven replacement for "sleep and hope the waiter
// parked". Waiting() is updated under the monitor lock, so once it reads
// n the waiters are fully registered with the condition manager.
func waitParked(t *testing.T, m *Monitor, n int) {
	t.Helper()
	testutil.WaitFor(t, 10*time.Second, 0, func() bool { return m.Waiting() == n },
		"%d waiter(s) parked", n)
}

// waitTimeout runs f in a goroutine and fails the test if it does not
// finish within the deadline — the standard guard against lost wake-ups.
func waitTimeout(t *testing.T, d time.Duration, name string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v (lost wake-up?)", name, d)
	}
}

func TestAwaitFastPath(t *testing.T) {
	m := New()
	m.NewInt("count", 5)
	m.Enter()
	if err := m.Await("count >= 3"); err != nil {
		t.Fatal(err)
	}
	m.Exit()
	s := m.Stats()
	if s.FastPath != 1 || s.Wakeups != 0 {
		t.Errorf("stats = %s; want one fast path, no wakeups", s)
	}
}

func TestAwaitHandoff(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	released := make(chan int64, 1)

	go func() {
		m.Enter()
		if err := m.Await("count >= num", BindInt("num", 5)); err != nil {
			released <- -1
			m.Exit()
			return
		}
		released <- count.Get()
		m.Exit()
	}()

	// Wait for the waiter to park, then push count over the threshold in
	// two steps; only the second should release it.
	waitParked(t, m, 1)
	m.Do(func() { count.Add(3) })
	select {
	case v := <-released:
		t.Fatalf("waiter released early with count=%d", v)
	case <-time.After(20 * time.Millisecond):
	}
	m.Do(func() { count.Add(2) })
	select {
	case v := <-released:
		if v < 5 {
			t.Errorf("waiter saw count=%d, want >= 5", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never released")
	}
}

func TestAwaitPredicateTrueOnReturn(t *testing.T) {
	// Whenever Await returns, the predicate must hold — the globalization
	// guarantee that distinguishes AutoSynch from broadcast-based designs.
	for _, tagging := range []bool{true, false} {
		var opts []Option
		if !tagging {
			opts = append(opts, WithoutTagging())
		}
		m := New(opts...)
		count := m.NewInt("count", 0)
		var wg sync.WaitGroup
		const consumers = 8
		var violations int64
		for i := 0; i < consumers; i++ {
			wg.Add(1)
			go func(need int64) {
				defer wg.Done()
				m.Enter()
				if err := m.Await("count >= need", BindInt("need", need)); err != nil {
					violations++
					m.Exit()
					return
				}
				if count.Get() < need {
					violations++ // under the lock; safe
				}
				count.Add(-need)
				m.Exit()
			}(int64(i%4 + 1))
		}
		waitTimeout(t, 10*time.Second, "consumers", func() {
			for j := 0; j < 100; j++ {
				m.Do(func() { count.Add(1) })
			}
			wg.Wait()
		})
		if violations != 0 {
			t.Errorf("tagging=%t: %d waiters saw a false predicate after Await", tagging, violations)
		}
	}
}

func TestAwaitErrors(t *testing.T) {
	m := New()
	m.NewInt("count", 0)
	m.Enter()
	defer m.Exit()

	cases := []struct {
		name    string
		pred    string
		binds   []Binding
		errPart string
	}{
		{"parse error", "count >=", nil, "parse"},
		{"undeclared", "missing > 0", nil, "neither a shared monitor variable nor bound"},
		{"missing binding", "count >= num", nil, "neither a shared monitor variable nor bound"},
		{"shared bound fresh", "count >= 0", []Binding{BindInt("count", 1)}, "shared monitor variable"},
		{"unknown binding", "count > 0", []Binding{BindInt("x", 1)}, "binding(s)"},
		{"shared bound cached", "count > 0", []Binding{BindInt("count", 1)}, "shared monitor variable"},
		{"duplicate binding", "count >= num", []Binding{BindInt("num", 1), BindInt("num", 2)}, "duplicate binding"},
		{"extra binding", "count >= num", []Binding{BindInt("num", 1), BindInt("extra", 2)}, "does not match any local variable"},
		{"type mismatch binding", "count >= num", []Binding{BindBool("num", true)}, "has type bool, predicate uses it as int"},
		{"ill-typed", "count && count > 0", nil, "must be bool"},
	}
	for _, c := range cases {
		err := m.Await(c.pred, c.binds...)
		if err == nil {
			t.Errorf("%s: Await(%q) succeeded, want error containing %q", c.name, c.pred, c.errPart)
			continue
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.errPart)
		}
	}
}

func TestAwaitNeverTrue(t *testing.T) {
	m := New()
	m.NewInt("count", 0)
	m.Enter()
	defer m.Exit()
	// 5 >= 10 globalizes to false: waiting would deadlock, so it errors.
	err := m.Await("num >= 10", BindInt("num", 5))
	if !errors.Is(err, ErrNeverTrue) {
		t.Errorf("err = %v, want ErrNeverTrue", err)
	}
}

func TestBindingTypeFixedAtFirstUse(t *testing.T) {
	m := New()
	m.NewInt("count", 0)
	m.Enter()
	defer m.Exit()
	if err := m.Await("count >= num", BindInt("num", 0)); err != nil {
		t.Fatal(err)
	}
	err := m.Await("count >= num", BindBool("num", true))
	if err == nil || !strings.Contains(err.Error(), "type") {
		t.Errorf("expected type mismatch error, got %v", err)
	}
}

func TestAwaitFunc(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	done := make(chan struct{})
	limit := int64(3) // captured local: constant while waiting
	go func() {
		defer close(done)
		m.Enter()
		m.AwaitFunc(func() bool { return count.Get() >= limit })
		if count.Get() < limit {
			t.Error("closure predicate false after AwaitFunc")
		}
		m.Exit()
	}()
	waitParked(t, m, 1)
	for i := 0; i < 3; i++ {
		m.Do(func() { count.Add(1) })
	}
	waitTimeout(t, 5*time.Second, "AwaitFunc waiter", func() { <-done })

	// The one-shot entry must be gone.
	if _, _, _, none := m.DebugCounts(); none != 0 {
		t.Errorf("func entry leaked: none list has %d entries", none)
	}
}

func TestPredicateReuseAndInactiveList(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)

	await := func(n int64) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			m.Enter()
			if err := m.Await("count >= num", BindInt("num", n)); err != nil {
				t.Error(err)
			}
			m.Exit()
		}()
		waitParked(t, m, 1)
		m.Do(func() { count.Set(n) })
		waitTimeout(t, 5*time.Second, "waiter", func() { <-done })
		m.Do(func() { count.Set(0) })
	}

	await(7)
	s := m.Stats()
	if s.Registrations != 1 || s.Reuses != 0 {
		t.Fatalf("after first wait: %s", s)
	}
	if active, inactive, _, _ := m.DebugCounts(); active != 0 || inactive != 1 {
		t.Fatalf("counts after first wait: active=%d inactive=%d, want 0/1", active, inactive)
	}
	// Same canonical predicate again: the parked entry must be reused.
	await(7)
	s = m.Stats()
	if s.Registrations != 1 || s.Reuses != 1 {
		t.Errorf("after reuse: %s", s)
	}
	// Different key registers a fresh entry.
	await(9)
	s = m.Stats()
	if s.Registrations != 2 {
		t.Errorf("after new key: %s", s)
	}
}

func TestInactiveListEviction(t *testing.T) {
	m := New(WithInactiveLimit(2))
	count := m.NewInt("count", 0)
	for n := int64(1); n <= 4; n++ {
		done := make(chan struct{})
		go func(n int64) {
			defer close(done)
			m.Enter()
			if err := m.Await("count >= num", BindInt("num", n*100)); err != nil {
				t.Error(err)
			}
			m.Exit()
		}(n)
		waitParked(t, m, 1)
		m.Do(func() { count.Set(n * 100) })
		waitTimeout(t, 5*time.Second, "waiter", func() { <-done })
		m.Do(func() { count.Set(0) })
	}
	if _, inactive, _, _ := m.DebugCounts(); inactive != 2 {
		t.Errorf("inactive = %d, want 2 (limit)", inactive)
	}
	if s := m.Stats(); s.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", s.Evictions)
	}
}

func TestSharedPredicateIsStatic(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Enter()
		if err := m.Await("count > 0"); err != nil { // no locals: shared predicate
			t.Error(err)
		}
		m.Exit()
	}()
	waitParked(t, m, 1)
	m.Do(func() { count.Set(1) })
	waitTimeout(t, 5*time.Second, "waiter", func() { <-done })
	// Static predicates stay in the active table with no waiters.
	if active, inactive, _, _ := m.DebugCounts(); active != 1 || inactive != 0 {
		t.Errorf("active=%d inactive=%d, want 1/0 (static entry retained)", active, inactive)
	}
}

func TestNoSignalAllEver(t *testing.T) {
	// The headline property: AutoSynch never issues a broadcast.
	m := New()
	count := m.NewInt("count", 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			m.Enter()
			if err := m.Await("count >= num", BindInt("num", n)); err != nil {
				t.Error(err)
			}
			count.Add(-n)
			m.Exit()
		}(int64(i%5 + 1))
	}
	waitTimeout(t, 10*time.Second, "workload", func() {
		for j := 0; j < 200; j++ {
			m.Do(func() { count.Add(1) })
		}
		wg.Wait()
	})
	if s := m.Stats(); s.Broadcasts != 0 {
		t.Errorf("AutoSynch issued %d broadcasts; must be 0", s.Broadcasts)
	}
}

func TestMonitorPanics(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	check("exit without enter", func() { New().Exit() })
	check("await outside monitor", func() {
		m := New()
		m.NewInt("x", 0)
		_ = m.Await("x > 0")
	})
	check("awaitfunc outside monitor", func() { New().AwaitFunc(func() bool { return true }) })
	check("duplicate variable", func() {
		m := New()
		m.NewInt("x", 0)
		m.NewInt("x", 1)
	})
	check("invalid variable name", func() { New().NewInt("9bad", 0) })
	check("keyword variable name", func() { New().NewBool("true", false) })
}

func TestDoReleasesOnPanic(t *testing.T) {
	m := New()
	func() {
		defer func() { recover() }()
		m.Do(func() { panic("boom") })
	}()
	// The monitor must be usable afterwards.
	waitTimeout(t, 2*time.Second, "reacquire", func() { m.Do(func() {}) })
}

func TestResetStats(t *testing.T) {
	m := New()
	m.NewInt("x", 1)
	m.Enter()
	_ = m.Await("x > 0")
	m.Exit()
	if s := m.Stats(); s.Awaits != 1 {
		t.Fatalf("awaits = %d", s.Awaits)
	}
	m.ResetStats()
	if s := m.Stats(); s.Awaits != 0 {
		t.Errorf("after reset: %s", s)
	}
}

func TestTaggingAccessor(t *testing.T) {
	if !New().Tagging() {
		t.Error("default monitor should have tagging enabled")
	}
	if New(WithoutTagging()).Tagging() {
		t.Error("WithoutTagging monitor reports tagging enabled")
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{Awaits: 1, Signals: 2, Wakeups: 3, RelayCalls: 10}
	b := Stats{Awaits: 10, Signals: 20, Wakeups: 30, RelayCalls: 5}
	sum := a.Add(b)
	if sum.Awaits != 11 || sum.Signals != 22 || sum.Wakeups != 33 || sum.RelayCalls != 15 {
		t.Errorf("Add = %+v", sum)
	}
	if sum.ContextSwitches() != 33 {
		t.Errorf("ContextSwitches = %d", sum.ContextSwitches())
	}
	if !strings.Contains(a.String(), "signals=2") {
		t.Errorf("String = %q", a.String())
	}
}
