package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

func TestCompileOnceAwaitMany(t *testing.T) {
	// The compiled-predicate flow: one Compile per scenario, any number of
	// concurrent waiters binding through the same *Predicate.
	m := New()
	count := m.NewInt("count", 0)
	need, err := m.Compile("count >= num")
	if err != nil {
		t.Fatal(err)
	}
	if got := need.Locals(); len(got) != 1 || got[0] != "num" {
		t.Fatalf("Locals() = %v, want [num]", got)
	}
	if need.Src() != "count >= num" {
		t.Errorf("Src() = %q", need.Src())
	}

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			m.Enter()
			if err := m.AwaitPred(need, BindInt("num", n)); err != nil {
				t.Error(err)
			}
			count.Add(-n)
			m.Exit()
		}(int64(i%4 + 1))
	}
	waitTimeout(t, 10*time.Second, "compiled waiters", func() {
		for j := 0; j < 120; j++ {
			m.Do(func() { count.Add(1) })
		}
		wg.Wait()
	})
	if s := m.Stats(); s.Broadcasts != 0 {
		t.Errorf("broadcasts = %d", s.Broadcasts)
	}
}

func TestCompileSharesCacheWithStringAwait(t *testing.T) {
	m := New()
	m.NewInt("count", 1)
	p := m.MustCompile("count >= num")
	m.Enter()
	if err := m.Await("count >= num", BindInt("num", 1)); err != nil {
		t.Fatal(err)
	}
	m.Exit()
	q, err := m.Compile("count >= num")
	if err != nil {
		t.Fatal(err)
	}
	if p != q {
		t.Error("Compile of the same source returned a distinct *Predicate")
	}
}

func TestPredicateAwaitMethod(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	p := m.MustCompile("count >= 2")
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Enter()
		if err := p.Await(); err != nil {
			t.Error(err)
		}
		m.Exit()
	}()
	waitParked(t, m, 1)
	m.Do(func() { count.Set(2) })
	waitTimeout(t, 5*time.Second, "p.Await waiter", func() { <-done })
}

func TestAwaitPredBindValidation(t *testing.T) {
	m := New()
	m.NewInt("count", 100) // large: every valid wait takes the fast path
	p := m.MustCompile("count >= a && count >= b")
	m.Enter()
	defer m.Exit()

	cases := []struct {
		name    string
		binds   []Binding
		errPart string // "" → must succeed
	}{
		{"ok", []Binding{BindInt("a", 1), BindInt("b", 2)}, ""},
		{"order-insensitive", []Binding{BindInt("b", 2), BindInt("a", 1)}, ""},
		{"missing all", nil, "neither a shared monitor variable nor bound"},
		{"missing one", []Binding{BindInt("a", 1)}, "b neither a shared"},
		{"duplicate", []Binding{BindInt("a", 1), BindInt("a", 2)}, "duplicate binding"},
		{"unknown", []Binding{BindInt("a", 1), BindInt("z", 2)}, "does not match any local"},
		{"shared name", []Binding{BindInt("a", 1), BindInt("count", 2)}, "shared monitor variable"},
		{"wrong type", []Binding{BindInt("a", 1), BindBool("b", true)}, "has type bool"},
	}
	for _, c := range cases {
		err := m.AwaitPred(p, c.binds...)
		if c.errPart == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: error %v does not contain %q", c.name, err, c.errPart)
		}
		var perr *PredicateError
		if !errors.As(err, &perr) {
			t.Errorf("%s: error %T is not a *PredicateError", c.name, err)
		}
	}
}

// TestBindReverseSlotOrder: a binding is matched against its own slot
// first and looked up by name otherwise, so a two-local predicate bound
// in reverse slot order waits on the right values, and a duplicate,
// unknown, extra or mistyped binding is rejected in any position.
func TestBindReverseSlotOrder(t *testing.T) {
	m := New()
	x := m.NewInt("x", 0)
	y := m.NewInt("y", 0)
	p := m.MustCompile("x >= a && y == b")
	if got := p.Locals(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("locals = %v, want [a b]", got)
	}
	done := make(chan error, 1)
	go func() {
		m.Enter()
		err := p.Await(BindInt("b", 2), BindInt("a", 3))
		if err == nil && (x.Get() < 3 || y.Get() != 2) {
			err = fmt.Errorf("woke at x=%d y=%d, want x >= 3 and y == 2", x.Get(), y.Get())
		}
		m.Exit()
		done <- err
	}()
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return m.Waiting() == 1 }, "reverse-bound waiter parked")
	// The swapped bindings, a = 2 and b = 3, would hold here.
	m.Do(func() { x.Set(2); y.Set(3) })
	if w, s := m.Waiting(), m.PendingSignals(); w != 1 || s != 0 {
		t.Fatalf("at x=2 y=3: %d waiting, %d signals pending; want the waiter still parked", w, s)
	}
	m.Do(func() { x.Set(3); y.Set(2) })
	waitTimeout(t, 5*time.Second, "reverse-bound waiter", func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	})

	m.Enter()
	defer m.Exit()
	if ok, err := p.Try(BindInt("b", 2), BindInt("a", 3)); err != nil || !ok {
		t.Errorf("Try(b=2, a=3) at x=3 y=2 = %v, %v; want true", ok, err)
	}
	if ok, err := p.Try(BindInt("b", 3), BindInt("a", 2)); err != nil || ok {
		t.Errorf("Try(b=3, a=2) at x=3 y=2 = %v, %v; want false", ok, err)
	}
	for _, c := range []struct {
		name    string
		binds   []Binding
		errPart string
	}{
		{"duplicate b", []Binding{BindInt("b", 2), BindInt("b", 3)}, "duplicate binding"},
		{"duplicate a", []Binding{BindInt("a", 2), BindInt("a", 3)}, "duplicate binding"},
		{"unknown", []Binding{BindInt("z", 2), BindInt("a", 3)}, "does not match any local"},
		{"extra", []Binding{BindInt("b", 2), BindInt("a", 3), BindInt("c", 4)}, "does not match any local"},
		{"mistyped", []Binding{BindBool("b", true), BindInt("a", 3)}, "has type bool"},
	} {
		_, err := p.Try(c.binds...)
		if err == nil || !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: error %v does not contain %q", c.name, err, c.errPart)
		}
	}
}

func TestPredicateErrorShapes(t *testing.T) {
	m := New()
	m.NewInt("count", 0)

	// Compile-time failures. The last has 2^8 = 256 conjunctions in DNF,
	// past the limit of dnf.DefaultMaxConjunctions.
	var blowup []string
	for i := 0; i < 8; i++ {
		blowup = append(blowup, fmt.Sprintf("(a%d > 0 || b%d > 0)", i, i))
	}
	for _, src := range []string{"count >=", "count + 1", "a && a > 0", strings.Join(blowup, " && ")} {
		_, err := m.Compile(src)
		if err == nil {
			t.Errorf("Compile(%q) succeeded", src)
			continue
		}
		var perr *PredicateError
		if !errors.As(err, &perr) {
			t.Errorf("Compile(%q): %T is not a *PredicateError", src, err)
		} else if perr.Src != src {
			t.Errorf("Compile(%q): PredicateError.Src = %q", src, perr.Src)
		}
	}

	// Bind-time and never-true failures, through both entry points.
	// (Compile acquires the monitor itself, so it must run before Enter.)
	p := m.MustCompile("num >= 10")
	m.Enter()
	defer m.Exit()
	for name, err := range map[string]error{
		"string": m.Await("num >= 10", BindInt("num", 5)),
		"pred":   m.AwaitPred(p, BindInt("num", 5)),
	} {
		if !errors.Is(err, ErrNeverTrue) {
			t.Errorf("%s: err = %v, want ErrNeverTrue", name, err)
		}
		var perr *PredicateError
		if !errors.As(err, &perr) {
			t.Errorf("%s: never-true error %T is not a *PredicateError", name, err)
		}
	}
	err := m.AwaitPred(p)
	var perr *PredicateError
	if !errors.As(err, &perr) || errors.Is(err, ErrNeverTrue) {
		t.Errorf("bind arity error = %v; want *PredicateError not wrapping ErrNeverTrue", err)
	}
}

func TestAwaitPredWrongMonitor(t *testing.T) {
	m1 := New()
	m1.NewInt("x", 0)
	m2 := New()
	m2.NewInt("x", 0)
	p := m1.MustCompile("x >= 0")
	m2.Enter()
	defer m2.Exit()
	err := m2.AwaitPred(p)
	if err == nil || !strings.Contains(err.Error(), "different monitor") {
		t.Errorf("err = %v, want different-monitor error", err)
	}
	if err := m2.AwaitPred(nil); err == nil {
		t.Error("AwaitPred(nil) succeeded")
	}
}

func TestBuilderLowersToSameIR(t *testing.T) {
	m := New()
	count := m.NewInt("count", 0)
	capV := m.NewInt("cap", 64)
	stop := m.NewBool("stop", false)

	cases := []struct {
		b   BoolExpr
		src string
	}{
		{count.AtLeast(Local("num")), "count >= num"},
		{count.Expr().Plus(Local("k")).AtMost(capV.Expr()), "count + k <= cap"},
		{Or(count.Expr().Plus(Local("k")).AtMost(capV.Expr()), stop.IsTrue()), "count + k <= cap || stop"},
		{And(count.GreaterThan(Lit(0)), Not(stop.IsTrue())), "count > 0 && !stop"},
		{count.EqualTo(Lit(3)), "count == 3"},
		{count.Expr().Minus(Lit(1)).Times(Lit(2)).NotEqualTo(Local("v")), "(count - 1) * 2 != v"},
		{stop.IsFalse(), "!stop"},
		{count.LessThan(capV.Expr()), "count < cap"},
	}
	for _, c := range cases {
		if got := c.b.Src(); got != c.src {
			t.Errorf("builder rendered %q, want %q", got, c.src)
			continue
		}
		pb, err := m.CompileExpr(c.b)
		if err != nil {
			t.Errorf("CompileExpr(%q): %v", c.src, err)
			continue
		}
		ps, err := m.Compile(c.src)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.src, err)
			continue
		}
		if pb != ps {
			t.Errorf("builder and string forms of %q compiled to distinct predicates", c.src)
		}
	}
}

func TestBuilderScenarioEndToEnd(t *testing.T) {
	// The quickstart workload written entirely with typed builders.
	m := New()
	count := m.NewInt("count", 0)
	capV := m.NewInt("cap", 4)
	hasRoom := m.MustCompileExpr(count.Expr().Plus(Local("k")).AtMost(capV.Expr()))
	hasItems := m.MustCompileExpr(count.AtLeast(Local("num")))

	const items = 60
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < items/2; i++ {
			m.Enter()
			if err := hasRoom.Await(BindInt("k", 2)); err != nil {
				t.Error(err)
			}
			count.Add(2)
			m.Exit()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < items/3; i++ {
			m.Enter()
			if err := hasItems.Await(BindInt("num", 3)); err != nil {
				t.Error(err)
			}
			count.Add(-3)
			m.Exit()
		}
	}()
	waitTimeout(t, 15*time.Second, "builder scenario", func() { wg.Wait() })
	m.Do(func() {
		if count.Get() != 0 {
			t.Errorf("final count = %d", count.Get())
		}
	})
	if s := m.Stats(); s.Broadcasts != 0 {
		t.Errorf("broadcasts = %d", s.Broadcasts)
	}
}

func TestBuilderErrors(t *testing.T) {
	m := New()
	m.NewInt("count", 0)
	if _, err := m.CompileExpr(BoolExpr{}); err == nil {
		t.Error("empty builder predicate compiled")
	}
	var orphan IntCell // not created by NewInt: has no name
	if _, err := m.CompileExpr(orphan.AtLeast(Lit(1))); err == nil {
		t.Error("unnamed-cell predicate compiled")
	}
	// Ill-typed: the same local used as both int and bool.
	bad := And(Local("flag").AtMost(Lit(3)), LocalBool("flag"))
	if _, err := m.CompileExpr(bad); err == nil {
		t.Error("ill-typed builder predicate compiled")
	}
}
