package core

import (
	"testing"
	"time"
)

func TestTemplatePathChosen(t *testing.T) {
	m := New()
	m.NewInt("x", 0)
	m.NewInt("y", 0)
	m.NewBool("open", false)

	templateable := []struct {
		pred  string
		binds []Binding
	}{
		{"x > 0", nil},
		{"open", nil},
		{"!open && x == 0", nil},
		{"x >= k", []Binding{BindInt("k", 1)}},
		{"x - 2 >= y + k", []Binding{BindInt("k", 1)}},
		{"x == a && y >= b || open", []Binding{BindInt("a", 1), BindInt("b", 2)}},
		{"x >= a * a", []Binding{BindInt("a", 3)}}, // nonlinear in locals only: key = a²
	}
	for _, c := range templateable {
		p, err := m.Compile(c.pred)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.pred, err)
			continue
		}
		if p.tmpl == nil {
			t.Errorf("predicate %q did not get a template", c.pred)
		}
		if err := p.setBinds(c.binds); err != nil {
			t.Errorf("setBinds(%q): %v", c.pred, err)
		}
	}

	generic := []struct {
		pred  string
		binds []Binding
	}{
		{"x * x >= k", []Binding{BindInt("k", 1)}},     // nonlinear in shared
		{"x % 2 == 0", nil},                            // modulus of shared
		{"k > 0 || x > 0", []Binding{BindInt("k", 1)}}, // pure-local atom
		{"b && x > 0", []Binding{BindBool("b", true)}}, // bare local bool atom
		{"true", nil},
		{"false", nil},
	}
	for _, c := range generic {
		p, err := m.Compile(c.pred)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.pred, err)
			continue
		}
		if p.tmpl != nil {
			t.Errorf("predicate %q unexpectedly got a template (canon %q)", c.pred, p.tmpl.canon)
		}
		if err := p.setBinds(c.binds); err != nil {
			t.Errorf("setBinds(%q): %v", c.pred, err)
		}
	}
}

func TestTemplateStaticEntryCached(t *testing.T) {
	m := New()
	x := m.NewInt("x", 0)
	for round := 0; round < 3; round++ {
		done := startWaiter(t, m, "x > 0")
		m.Do(func() { x.Set(1) })
		waitTimeout(t, 5*time.Second, "waiter", func() { <-done })
		m.Do(func() { x.Set(0) })
	}
	s := m.Stats()
	if s.Registrations != 1 {
		t.Errorf("registrations = %d, want 1 (static entry cached on the predicate)", s.Registrations)
	}
	if s.Reuses != 0 {
		t.Errorf("reuses = %d, want 0 (static path skips the inactive list)", s.Reuses)
	}
}

func TestTemplateKeyVariants(t *testing.T) {
	// The same source predicate with different bindings produces distinct
	// entries keyed by the globalized values, and identical bindings
	// reuse the parked entry.
	m := New()
	x := m.NewInt("x", 0)
	release := func(v int64) {
		m.Do(func() { x.Set(v) })
	}
	d5 := startWaiter(t, m, "x >= k", BindInt("k", 5))
	d9 := startWaiter(t, m, "x >= k", BindInt("k", 9))
	if s := m.Stats(); s.Registrations != 2 {
		t.Fatalf("registrations = %d, want 2", s.Registrations)
	}
	release(5)
	waitTimeout(t, 5*time.Second, "k=5 waiter", func() { <-d5 })
	select {
	case <-d9:
		t.Fatal("k=9 waiter released at x=5")
	case <-time.After(30 * time.Millisecond):
	}
	release(9)
	waitTimeout(t, 5*time.Second, "k=9 waiter", func() { <-d9 })
	release(0)

	// Same key again: must reuse the parked entry, not register.
	d5b := startWaiter(t, m, "x >= k", BindInt("k", 5))
	release(5)
	waitTimeout(t, 5*time.Second, "k=5 again", func() { <-d5b })
	s := m.Stats()
	if s.Registrations != 2 || s.Reuses == 0 {
		t.Errorf("registrations=%d reuses=%d, want 2 and >0", s.Registrations, s.Reuses)
	}
}

func TestTemplateLocalBoolKey(t *testing.T) {
	// open == b with a local bool: the key is b's 0/1 encoding.
	m := New()
	open := m.NewBool("open", false)
	done := startWaiter(t, m, "open == b", BindBool("b", true))
	select {
	case <-done:
		t.Fatal("released while open=false, b=true")
	case <-time.After(30 * time.Millisecond):
	}
	m.Do(func() { open.Set(true) })
	waitTimeout(t, 5*time.Second, "bool-key waiter", func() { <-done })

	// b=false is satisfied immediately (fast path).
	m.Do(func() { open.Set(false) })
	m.Enter()
	if err := m.Await("open == b", BindBool("b", false)); err != nil {
		t.Fatal(err)
	}
	m.Exit()
}

func TestTemplateComputedKey(t *testing.T) {
	// The paper's §4.3 example: x + b > 2y + a with a=11, b=2 must behave
	// as (x − 2y > 9).
	m := New()
	x := m.NewInt("x", 0)
	m.NewInt("y", 0) // y stays 0
	done := startWaiter(t, m, "x + b > 2*y + a", BindInt("a", 11), BindInt("b", 2))
	m.Do(func() { x.Set(9) })
	select {
	case <-done:
		t.Fatal("released at x-2y = 9, needs > 9")
	case <-time.After(30 * time.Millisecond):
	}
	m.Do(func() { x.Set(10) })
	waitTimeout(t, 5*time.Second, "computed-key waiter", func() { <-done })
}

func TestTemplateGenericPathStillWorks(t *testing.T) {
	// Nonlinear shared predicate: generic registration path end to end.
	m := New()
	x := m.NewInt("x", 0)
	done := startWaiter(t, m, "x * x >= k", BindInt("k", 9))
	m.Do(func() { x.Set(2) })
	select {
	case <-done:
		t.Fatal("released at x²=4 < 9")
	case <-time.After(30 * time.Millisecond):
	}
	m.Do(func() { x.Set(3) })
	waitTimeout(t, 5*time.Second, "nonlinear waiter", func() { <-done })
}

func TestTemplateManyKeysFallbackBuffer(t *testing.T) {
	// More than 8 keys exercises the heap-allocated key vector.
	m := New()
	for _, v := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"} {
		m.NewInt(v, 100)
	}
	m.Enter()
	err := m.Await("a>k1 && b>k2 && c>k3 && d>k4 && e>k5 && f>k6 && g>k7 && h>k8 && i>k9",
		BindInt("k1", 1), BindInt("k2", 2), BindInt("k3", 3), BindInt("k4", 4),
		BindInt("k5", 5), BindInt("k6", 6), BindInt("k7", 7), BindInt("k8", 8), BindInt("k9", 9))
	m.Exit()
	if err != nil {
		t.Fatal(err)
	}
}

func TestTemplateIdentityDistinguishesKeys(t *testing.T) {
	m := New()
	m.NewInt("x", 0)
	p, err := m.Compile("x >= k")
	if err != nil {
		t.Fatal(err)
	}
	if p.tmpl == nil {
		t.Fatal("no template")
	}
	a := string(p.tmpl.appendIdentity(nil, []int64{1}))
	b := string(p.tmpl.appendIdentity(nil, []int64{-1}))
	c := string(p.tmpl.appendIdentity(nil, []int64{1, 2}))
	if a == b || a == c || b == c {
		t.Errorf("identities collide: %q %q %q", a, b, c)
	}
}
