package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/testutil"
)

// entryOf returns the entry a handle is registered on, nil once it has
// unregistered.
func entryOf(w *Wait) *entry {
	w.host.lockWait()
	defer w.host.unlockWait()
	return w.e
}

// entryState is what a registered entry shows its waiters and the relay
// search.
type entryState struct {
	waiters    []*Wait
	unnotified int32
	waiting    int
}

func stateOf(m *Monitor, e *entry) entryState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return entryState{append([]*Wait(nil), e.waiters...), e.unnotified, m.waiting}
}

func (s entryState) equal(o entryState) bool {
	return s.unnotified == o.unnotified && s.waiting == o.waiting && slices.Equal(s.waiters, o.waiters)
}

// TestRecycledEntryUnreachable: a handle drops its entry when it
// unregisters, by a claim, a cancel or an expiry, so a finished handle
// cannot reach an entry whose storage was recycled. A claimed, a
// cancelled and an expired handle whose entries were released and
// rebuilt under other keys still answer Claim, Cancel and Err as
// finished handles, leaving the rebuilt entries' waiters, their
// unnotified counts and the monitor's Waiting unchanged, and the claimed
// one re-arms onto another key.
func TestRecycledEntryUnreachable(t *testing.T) {
	m := New(WithInactiveLimit(0))
	defer testutil.NoLeaks(t, m)()
	x := m.NewInt("x", 0)
	p := m.MustCompile("x >= k")

	claimed := p.Arm(BindInt("k", 1))
	first := entryOf(claimed)
	m.Do(func() { x.Set(1) })
	if err := claimed.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	m.Exit()
	if e := entryOf(claimed); e != nil {
		t.Fatal("a claimed handle keeps its entry")
	}
	checkRelayState(t, m)

	// x >= 5 is built in the storage of x >= 1, which its claim released.
	w := p.Arm(BindInt("k", 5))
	rebuilt := entryOf(w)
	if rebuilt != first {
		t.Fatal("the fresh entry was not built in the released entry's storage")
	}
	checkRelayState(t, m)

	cancelled := p.Arm(BindInt("k", 7))
	cancelled.Cancel()
	if e := entryOf(cancelled); e != nil {
		t.Fatal("a cancelled handle keeps its entry")
	}
	expired := p.Arm(BindInt("k", 8)).Timeout(time.Millisecond)
	waitTimeout(t, 10*time.Second, "handle expiry", func() { <-expired.Ready() })
	if e := entryOf(expired); e != nil {
		t.Fatal("an expired handle keeps its entry")
	}
	// x >= 7 and x >= 8 were released in turn; x >= 9 is built in the
	// storage of x >= 8.
	w2 := p.Arm(BindInt("k", 9))
	checkRelayState(t, m)

	before := stateOf(m, rebuilt)
	before2 := stateOf(m, entryOf(w2))
	if err := claimed.Claim(); !errors.Is(err, ErrClaimed) {
		t.Errorf("Claim of a claimed handle = %v, want ErrClaimed", err)
	}
	claimed.Cancel()
	if err := claimed.Err(); err != nil {
		t.Errorf("Err of a claimed handle = %v, want nil", err)
	}
	for _, h := range []*Wait{cancelled, expired} {
		want := ErrCancelled
		if h == expired {
			want = ErrDeadline
		}
		if err := h.Claim(); !errors.Is(err, want) {
			t.Errorf("Claim of a finished handle = %v, want %v", err, want)
		}
		h.Cancel()
		if err := h.Err(); !errors.Is(err, want) {
			t.Errorf("Err of a finished handle = %v, want %v", err, want)
		}
	}
	if after := stateOf(m, rebuilt); !after.equal(before) {
		t.Errorf("the rebuilt entry changed: %+v, was %+v", after, before)
	}
	if after := stateOf(m, entryOf(w2)); !after.equal(before2) {
		t.Errorf("the second rebuilt entry changed: %+v, was %+v", after, before2)
	}
	checkRelayState(t, m)

	if !RearmClaimed(p, claimed, BindInt("k", 11)) {
		t.Fatal("RearmClaimed refused a claimed handle")
	}
	if e := entryOf(claimed); e == nil || e == rebuilt || e.canon == rebuilt.canon {
		t.Error("the re-armed handle is not on the entry of its own key")
	}
	if after := stateOf(m, rebuilt); len(after.waiters) != 1 || after.unnotified != 1 || after.waiting != 3 {
		t.Errorf("after the re-arm: the rebuilt entry has %d waiters, %d unnotified; Waiting %d; want 1, 1, 3",
			len(after.waiters), after.unnotified, after.waiting)
	}
	checkRelayState(t, m)
	for _, h := range []*Wait{w, w2, claimed} {
		h.Cancel()
	}
	checkRelayState(t, m)
}

// TestRecycledEntryResets: an entry built in a released entry's storage
// keeps nothing of the released entry's predicate. A released entry of a
// predicate with its own LIFO policy, rebuilt as an entry of a predicate
// without one, wakes its waiters by the monitor's FIFO policy; a None
// entry (a shape that tags nothing) and an equivalence entry built in
// tagged entries' storage are searched as their own shapes. checkRelayState
// holds after every step.
func TestRecycledEntryResets(t *testing.T) {
	m := New(WithInactiveLimit(0), WithPolicy(policy.FIFO))
	defer testutil.NoLeaks(t, m)()
	x := m.NewInt("x", 0)
	lifo := m.MustCompile("x >= k").UsePolicy(policy.LIFO)
	plain := m.MustCompile("x > k")
	square := m.MustCompile("x * x >= k")
	equal := m.MustCompile("x == k")

	h := lifo.Arm(BindInt("k", 5))
	released := entryOf(h)
	h.Cancel()
	checkRelayState(t, m)

	older := plain.Arm(BindInt("k", 5))
	if entryOf(older) != released {
		t.Fatal("the fresh entry was not built in the released entry's storage")
	}
	newer := plain.Arm(BindInt("k", 5))
	checkRelayState(t, m)
	m.Do(func() { x.Set(6) })
	select {
	case <-older.Ready():
	default:
		t.Fatal("the relay did not wake the older waiter: the rebuilt entry kept the released entry's LIFO policy")
	}
	if closed(newer.Ready()) {
		t.Error("the relay woke the newer waiter")
	}
	if err := older.Claim(); err != nil {
		t.Fatalf("Claim = %v", err)
	}
	x.Set(0)
	m.Exit()
	newer.Cancel()
	checkRelayState(t, m)

	// A None entry, then an equivalence entry, in the storage of the
	// entry released before each.
	for _, c := range []struct {
		name string
		p    *Predicate
		k    int64
		set  int64
	}{
		{"none", square, 9, 3},
		{"equivalence", equal, 4, 4},
	} {
		w := c.p.Arm(BindInt("k", c.k))
		checkRelayState(t, m)
		m.Do(func() { x.Set(c.set) })
		select {
		case <-w.Ready():
		default:
			t.Fatalf("%s: the rebuilt entry was not signalled when its predicate held", c.name)
		}
		if err := w.Claim(); err != nil {
			t.Fatalf("%s: Claim = %v", c.name, err)
		}
		x.Set(0)
		m.Exit()
		checkRelayState(t, m)
	}
	if s := m.Stats(); s.Broadcasts != 0 {
		t.Errorf("broadcasts = %d", s.Broadcasts)
	}
}
