package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/testutil"
)

// closed reports whether ch is closed, without blocking.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// delivered receives the Select delivery queued on ch, failing the test
// if there is none. A relay notifies inside the Exit that runs it, so the
// delivery of a mutation's Do is queued when Do returns.
func delivered(t *testing.T, ch <-chan int, what string) int {
	t.Helper()
	select {
	case i := <-ch:
		return i
	default:
		t.Fatalf("%s: no delivery queued (lost wake-up?)", what)
		return -1
	}
}

// TestWaitReadyLazy pins the rules of a handle's ready channel, which
// the first Ready of an arm cycle makes, on every mechanism: a channel
// taken before the notification is closed by it, and one taken after it
// is returned closed; a futile Claim after a notification yields a fresh
// open channel, and one before any notification keeps the open one; a
// cancelled or failed handle's channel is closed.
func TestWaitReadyLazy(t *testing.T) {
	for _, tc := range deadlineMechs() {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			var flag atomic.Bool
			set := func(v bool) {
				flag.Store(v)
				tc.mech.Do(func() {
					if e, ok := tc.mech.(*Explicit); ok {
						e.NewCond().Broadcast() // explicit monitors notify on a manual signal
					}
				})
			}

			w := tc.mech.ArmFunc(flag.Load)
			before := w.Ready()
			if closed(before) {
				t.Fatal("Ready closed before the predicate held")
			}
			if w.Ready() != before {
				t.Fatal("a second Ready in one arm cycle returned another channel")
			}
			set(true)
			waitTimeout(t, 10*time.Second, "receive from the Ready channel taken before the notification", func() { <-before })
			if after := w.Ready(); after != before {
				t.Error("Ready after the notification returned another channel")
			}

			// A futile Claim after the notification starts a new cycle
			// with a fresh channel.
			set(false)
			if err := w.Claim(); !errors.Is(err, ErrNotReady) {
				t.Fatalf("Claim after falsification = %v, want ErrNotReady", err)
			}
			fresh := w.Ready()
			if fresh == before || closed(fresh) {
				t.Fatal("a futile Claim after the notification did not yield a fresh open channel")
			}
			// A futile Claim before any notification keeps it.
			if err := w.Claim(); !errors.Is(err, ErrNotReady) {
				t.Fatalf("early Claim = %v, want ErrNotReady", err)
			}
			if w.Ready() != fresh || closed(fresh) {
				t.Fatal("a futile Claim before any notification replaced or closed the open channel")
			}
			w.Cancel()
			if !closed(fresh) || !closed(w.Ready()) {
				t.Error("a cancelled handle's Ready is not closed")
			}

			// A channel first taken after the notification is born closed.
			flag.Store(true)
			late := tc.mech.ArmFunc(flag.Load)
			if !closed(late.Ready()) {
				t.Error("Ready taken after an arm-time notification is not closed")
			}
			if err := late.Claim(); err != nil {
				t.Fatalf("Claim = %v", err)
			}
			tc.mech.Exit()

			// A handle cancelled before any Ready.
			never := tc.mech.ArmFunc(func() bool { return false })
			never.Cancel()
			if !closed(never.Ready()) {
				t.Error("Ready of a handle cancelled before any Ready is not closed")
			}
		})
	}
	m := New()
	m.NewInt("count", 0)
	if bad := m.MustCompile("count >= k").Arm(); !closed(bad.Ready()) {
		t.Error("a failed handle's Ready is not closed")
	}
}

// TestHandleAllocs pins what a handle allocates. Arming and cancelling a
// handle on a parked entry allocates the handle alone, subscribed or not:
// only Ready makes its channel. A closure handle adds its entry and the
// entry's waiter slice. A cycle that re-arms a claimed handle in place,
// on cached entries, is woken through its subscription and claims
// allocates nothing; onto a fresh key every time, whose entry is built
// in the storage of the entry released last, it allocates the identity
// string and the tag analysis, at every inactive limit.
func TestHandleAllocs(t *testing.T) {
	if s := unsafe.Sizeof(Wait{}); s > 144 {
		t.Errorf("Wait is %d bytes, past the 144-byte size class", s)
	}
	if s := unsafe.Sizeof(entry{}); s > 160 {
		t.Errorf("entry is %d bytes, past the 160-byte size class", s)
	}
	const keys = 16
	m := New()
	x := m.NewInt("x", 0)
	p := m.MustCompile("x >= k")
	binds := make([][]Binding, keys)
	for i := range binds {
		binds[i] = []Binding{BindInt("k", int64(i+1))}
		p.Arm(binds[i]...).Cancel()
	}
	ch := make(chan int, 1)
	never := func() bool { return false }
	i := 0
	for _, c := range []struct {
		name string
		want float64
		op   func()
	}{
		{"Arm then Cancel on a parked entry", 1, func() {
			p.Arm(binds[i%keys]...).Cancel()
			i++
		}},
		{"Arm, Subscribe, Cancel on a parked entry", 1, func() {
			w := p.Arm(binds[i%keys]...)
			w.Subscribe(ch, i)
			w.Cancel()
			<-ch // Cancel's courtesy delivery
			i++
		}},
		{"ArmFunc then Cancel", 3, func() { m.ArmFunc(never).Cancel() }},
	} {
		if a := testing.AllocsPerRun(100, c.op); a != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, a, c.want)
		}
		checkRelayState(t, m)
	}

	w := p.Arm(binds[0]...)
	w.Subscribe(ch, 7)
	k := 0
	cycle := func() {
		m.Do(func() { x.Set(int64(k + 1)) })
		if got := delivered(t, ch, "re-armed handle"); got != 7 {
			t.Fatalf("delivered index %d, want 7", got)
		}
		if err := w.Claim(); err != nil {
			t.Fatalf("Claim = %v", err)
		}
		x.Set(0)
		m.Exit()
		k = (k + 1) % keys
		if !RearmClaimed(p, w, binds[k]...) {
			t.Fatal("RearmClaimed refused a claimed handle")
		}
	}
	for range keys {
		cycle()
	}
	regs := m.Stats().Registrations
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("a re-arm and claim cycle allocates %v times, want 0", a)
	}
	if got := m.Stats().Registrations; got != regs {
		t.Errorf("the measured cycles registered %d entries, want 0", got-regs)
	}
	w.Cancel()
	<-ch
	checkRelayState(t, m)

	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"inactive=0", []Option{WithInactiveLimit(0)}},
		{"inactive=1", []Option{WithInactiveLimit(1)}},
		{"default", nil},
	} {
		t.Run("fresh key "+c.name, func(t *testing.T) {
			freshKeyCycleAllocs(t, New(c.opts...))
		})
	}
}

// freshKeyCycleAllocs pins the claim → RearmClaimed cycle onto a fresh
// key every time: each re-arm misses the cache and builds an entry, and
// each claim retires the entry it leaves, which is discarded, or parked
// and, once the inactive ring is full, evicts the oldest. A second armed
// handle keeps the group named, so no cycle rebuilds it. The build reuses
// the released entry's storage, so a cycle allocates at most 3 objects:
// the identity string, the tag analysis, and slack for the entry map's
// own upkeep.
func freshKeyCycleAllocs(t *testing.T, m *Monitor) {
	defer testutil.NoLeaks(t, m)()
	x := m.NewInt("x", 0)
	p := m.MustCompile("x >= k")
	keep := p.Arm(BindInt("k", 1<<62))
	ch := make(chan int, 1)
	bind := []Binding{BindInt("k", 1)}
	w := p.Arm(bind...)
	w.Subscribe(ch, 7)
	k := int64(1)
	cycle := func() {
		m.Do(func() { x.Set(k) })
		delivered(t, ch, "fresh-key handle")
		if err := w.Claim(); err != nil {
			t.Fatalf("Claim = %v", err)
		}
		m.Exit()
		k++
		bind[0] = BindInt("k", k)
		if !RearmClaimed(p, w, bind...) {
			t.Fatal("RearmClaimed refused a claimed handle")
		}
	}
	for range DefaultInactiveLimit + 16 {
		cycle()
	}
	before := m.Stats()
	if a := testing.AllocsPerRun(100, cycle); a > 3 {
		t.Errorf("a claim and re-arm cycle onto a fresh key allocates %v times, want at most 3", a)
	}
	after := m.Stats()
	if regs := after.Registrations - before.Registrations; regs != 101 {
		t.Errorf("the measured cycles registered %d entries, want 101", regs)
	}
	if after.Reuses != before.Reuses {
		t.Errorf("the measured cycles reused %d parked entries, want 0", after.Reuses-before.Reuses)
	}
	if m.cfg.inactiveLimit > 0 && after.Evictions-before.Evictions != 101 {
		t.Errorf("the measured cycles evicted %d entries, want 101", after.Evictions-before.Evictions)
	}
	checkRelayState(t, m)
	w.Cancel()
	keep.Cancel()
	<-ch
	checkRelayState(t, m)
}

// TestRearmClaimed: RearmClaimed registers a claimed handle again in
// place, under a new arrival seq, and counts an arm. The handle keeps its
// Select subscription: the next notification arrives on the subscribed
// channel with the old index. A re-arm whose predicate already holds
// delivers at once.
func TestRearmClaimed(t *testing.T) {
	m := New()
	defer testutil.NoLeaks(t, m)()
	x := m.NewInt("x", 0)
	p := m.MustCompile("x >= k")
	seq := func(w *Wait) uint64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return w.seq
	}
	ch := make(chan int, 1)
	w := p.Arm(BindInt("k", 1))
	w.Subscribe(ch, 7)
	checkRelayState(t, m)
	m.Do(func() { x.Set(1) })
	if got := delivered(t, ch, "armed handle"); got != 7 {
		t.Fatalf("delivered index %d, want 7", got)
	}
	if err := w.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	m.Exit()
	checkRelayState(t, m)

	oldSeq, arms := seq(w), m.Stats().Arms
	if !RearmClaimed(p, w, BindInt("k", 2)) {
		t.Fatal("RearmClaimed refused a claimed handle")
	}
	checkRelayState(t, m)
	if s := seq(w); s <= oldSeq {
		t.Errorf("seq %d after the re-arm, want a new seq above %d", s, oldSeq)
	}
	if got := m.Stats().Arms; got != arms+1 {
		t.Errorf("Arms = %d after the re-arm, want %d", got, arms+1)
	}
	if got := m.Waiting(); got != 1 {
		t.Errorf("Waiting() = %d after the re-arm, want 1", got)
	}
	if err := w.Err(); err != nil {
		t.Errorf("Err after the re-arm = %v, want nil", err)
	}
	ready := w.Ready()
	select {
	case <-ch:
		t.Fatal("the re-armed handle delivered before its predicate held")
	default:
	}
	if closed(ready) {
		t.Fatal("the re-armed handle's Ready is closed before its predicate held")
	}

	m.Do(func() { x.Set(2) })
	if got := delivered(t, ch, "re-armed handle"); got != 7 {
		t.Fatalf("delivered index %d, want the subscription's 7", got)
	}
	if !closed(ready) {
		t.Error("the notification did not close the Ready channel taken after the re-arm")
	}
	if err := w.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	m.Exit()
	checkRelayState(t, m)

	// x is 2, so x >= 2 holds at the re-arm: the delivery is immediate.
	if !RearmClaimed(p, w, BindInt("k", 2)) {
		t.Fatal("RearmClaimed refused a claimed handle")
	}
	checkRelayState(t, m)
	select {
	case got := <-ch:
		if got != 7 {
			t.Errorf("delivered index %d, want 7", got)
		}
	default:
		t.Fatal("a re-arm on a true predicate did not deliver at once")
	}
	if !closed(w.Ready()) {
		t.Error("Ready of a handle re-armed on a true predicate is not closed")
	}
	if err := w.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	m.Exit()
	checkRelayState(t, m)
	if p := pendingSignals(m); p != 0 {
		t.Errorf("pending = %d", p)
	}
}

// TestRearmClaimedRefuses: RearmClaimed re-arms only a claimed handle of
// the predicate's monitor that never armed a deadline, on bindings that
// resolve to an entry. Any other handle it leaves as it was, counting no
// arm: an armed handle, a cancelled one, a failed one, a Baseline or
// Explicit handle, a handle of another monitor, a claimed handle that
// armed a deadline, and a claimed handle given a binding or
// globalization error, which a later re-arm with good bindings still
// takes.
func TestRearmClaimedRefuses(t *testing.T) {
	m := New()
	defer testutil.NoLeaks(t, m)()
	m.NewInt("x", 5)
	p := m.MustCompile("x >= k")
	other := New()
	other.NewInt("x", 5)
	always := func() bool { return true }
	// claim claims a handle that holds and leaves its monitor.
	claim := func(t *testing.T, w *Wait, mech Mechanism) *Wait {
		t.Helper()
		if err := w.Claim(); err != nil {
			t.Fatalf("Claim = %v", err)
		}
		mech.Exit()
		return w
	}
	type view struct {
		state    waitState
		notified bool
		seq      uint64
		idx      int
		e        *entry
		ready    chan struct{}
	}
	look := func(w *Wait) view {
		if w.host != nil {
			w.host.lockWait()
			defer w.host.unlockWait()
		}
		return view{w.state, w.notified, w.seq, w.idx, w.e, w.ready}
	}
	for _, c := range []struct {
		name  string
		pred  *Predicate
		binds []Binding
		arm   func(t *testing.T) *Wait
	}{
		{"armed", p, []Binding{BindInt("k", 1)}, func(t *testing.T) *Wait { return p.Arm(BindInt("k", 9)) }},
		{"cancelled", p, []Binding{BindInt("k", 1)}, func(t *testing.T) *Wait {
			w := p.Arm(BindInt("k", 9))
			w.Cancel()
			return w
		}},
		{"failed", p, []Binding{BindInt("k", 1)}, func(t *testing.T) *Wait { return p.Arm() }},
		{"baseline", p, []Binding{BindInt("k", 1)}, func(t *testing.T) *Wait {
			b := NewBaseline()
			return claim(t, b.ArmFunc(always), b)
		}},
		{"explicit", p, []Binding{BindInt("k", 1)}, func(t *testing.T) *Wait {
			e := NewExplicit()
			return claim(t, e.ArmFunc(always), e)
		}},
		{"another monitor", p, []Binding{BindInt("k", 1)}, func(t *testing.T) *Wait {
			return claim(t, other.MustCompile("x >= k").Arm(BindInt("k", 1)), other)
		}},
		{"deadline", p, []Binding{BindInt("k", 1)}, func(t *testing.T) *Wait {
			return claim(t, p.Arm(BindInt("k", 1)).Timeout(time.Hour), m)
		}},
		{"binding error", p, []Binding{BindInt("j", 1)}, func(t *testing.T) *Wait {
			return claim(t, p.Arm(BindInt("k", 1)), m)
		}},
		{"never true", m.MustCompile("x >= k && k < 0"), []Binding{BindInt("k", 3)}, func(t *testing.T) *Wait {
			return claim(t, p.Arm(BindInt("k", 1)), m)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := c.arm(t)
			checkRelayState(t, m)
			before, arms, waiting := look(w), m.Stats().Arms, m.Waiting()
			if RearmClaimed(c.pred, w, c.binds...) {
				t.Fatal("RearmClaimed re-armed the handle")
			}
			checkRelayState(t, m)
			checkRelayState(t, other)
			if after := look(w); after != before {
				t.Errorf("the refused handle changed: %+v, was %+v", after, before)
			}
			if got := m.Stats().Arms; got != arms {
				t.Errorf("Arms = %d after a refused re-arm, want %d", got, arms)
			}
			if got := m.Waiting(); got != waiting {
				t.Errorf("Waiting() = %d after a refused re-arm, want %d", got, waiting)
			}
			switch c.name {
			case "armed":
				w.Cancel()
			case "binding error", "never true":
				// The handle is still claimed: good bindings re-arm it.
				if !RearmClaimed(p, w, BindInt("k", 1)) {
					t.Fatal("RearmClaimed refused the handle after a refused re-arm")
				}
				claim(t, w, m)
			}
			checkRelayState(t, m)
		})
	}
	if got := other.Waiting(); got != 0 {
		t.Errorf("other monitor Waiting() = %d, want 0", got)
	}
}
