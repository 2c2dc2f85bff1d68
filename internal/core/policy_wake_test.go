package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/testutil"
)

// wakeOrder arms one handle per entry of prios on the folded-conjunct
// predicate "tokens >= 1 && prio >= 0" (the prio conjunct is constant
// under each waiter's binding, so every handle globalizes to the shared
// canonical "tokens >= 1" — while the binding still feeds Priority's
// rank), then produces a single token and drains the wake chain: each
// woken handle claims, records its arm index, and exits — the exit
// relays to the policy's next choice while the token stays available.
func wakeOrder(t *testing.T, m *Monitor, prios []int64) []int {
	t.Helper()
	tokens := m.NewInt("tokens", 0)
	p := m.MustCompile("tokens >= 1 && prio >= 0")
	ch := make(chan int, len(prios))
	ws := make([]*Wait, len(prios))
	for i, pr := range prios {
		ws[i] = p.Arm(BindInt("prio", pr))
		if err := ws[i].Err(); err != nil {
			t.Fatalf("arm %d: %v", i, err)
		}
		ws[i].Subscribe(ch, i)
	}
	m.Do(func() { tokens.Set(1) })
	var order []int
	for range prios {
		select {
		case i := <-ch:
			if err := ws[i].Claim(); err != nil {
				t.Fatalf("claim %d: %v", i, err)
			}
			order = append(order, i)
			m.Exit() // token still available: relay picks the policy's next waiter
		case <-time.After(5 * time.Second):
			t.Fatalf("wake chain stalled after %v", order)
		}
	}
	return order
}

func eqOrder(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPolicyWakeOrderFIFO(t *testing.T) {
	m := New(WithPolicy(policy.FIFO))
	defer testutil.NoLeaks(t, m)()
	got := wakeOrder(t, m, []int64{1, 3, 2, 5, 4})
	if want := []int{0, 1, 2, 3, 4}; !eqOrder(got, want) {
		t.Errorf("FIFO wake order = %v, want %v", got, want)
	}
	if s := m.Stats(); s.PolicyWakes == 0 {
		t.Errorf("PolicyWakes = 0, want > 0 under an installed policy")
	}
}

func TestPolicyWakeOrderLIFO(t *testing.T) {
	m := New(WithPolicy(policy.LIFO))
	defer testutil.NoLeaks(t, m)()
	got := wakeOrder(t, m, []int64{1, 3, 2, 5, 4})
	if want := []int{4, 3, 2, 1, 0}; !eqOrder(got, want) {
		t.Errorf("LIFO wake order = %v, want %v", got, want)
	}
}

func TestPolicyWakeOrderPriority(t *testing.T) {
	m := New(WithPolicy(policy.Priority(func(binds map[string]int64) int64 { return binds["prio"] })))
	defer testutil.NoLeaks(t, m)()
	// prios 1,3,2,5,4 at arm indexes 0..4: descending rank = 5,4,3,2,1.
	got := wakeOrder(t, m, []int64{1, 3, 2, 5, 4})
	if want := []int{3, 4, 1, 2, 0}; !eqOrder(got, want) {
		t.Errorf("Priority wake order = %v, want %v", got, want)
	}
	if s := m.Stats(); s.PolicyWakes == 0 {
		t.Errorf("PolicyWakes = 0, want > 0")
	}
}

// TestPolicyOrderAcrossGroups: a monitor policy ranks every signalable
// true waiter the relay search reaches, whatever kind of group holds it.
// Seven handles are armed in a known order: on the untaggable x * y >= 1
// (the None list), on y == 1 twice (one entry of an equivalence node), on
// three threshold nodes of group x (x >= 3 below the min-heap root x >= 1,
// and x <= 9 in the max-heap, whose y >= 1 is read outside the tag), and on
// a closure. One Do makes all of them true; each claim's Exit relays to
// the next, so the claim order is arrival order under FIFO and its reverse
// under LIFO. A search that stopped at the first group, or at the first
// heap root, with a true entry would claim in another order.
func TestPolicyOrderAcrossGroups(t *testing.T) {
	for _, c := range []struct {
		pol     policy.Policy
		reverse bool
	}{{policy.FIFO, false}, {policy.LIFO, true}} {
		t.Run(c.pol.Name(), func(t *testing.T) {
			m := New(WithPolicy(c.pol))
			defer testutil.NoLeaks(t, m)()
			x := m.NewInt("x", 0)
			y := m.NewInt("y", 0)
			ws := []*Wait{
				m.MustCompile("x * y >= 1").Arm(),
				m.MustCompile("y == k").Arm(BindInt("k", 1)),
				m.MustCompile("x >= 3").Arm(),
				m.MustCompile("x <= k && y >= 1").Arm(BindInt("k", 9)),
				m.MustCompile("x >= 1").Arm(),
				m.MustCompile("y == k").Arm(BindInt("k", 1)),
				m.ArmFunc(func() bool { return x.Get() >= 2 }),
			}
			m.Do(func() {
				x.Set(5)
				y.Set(1)
			})
			var order []int
			for len(order) < len(ws) {
				i := slices.IndexFunc(ws, func(w *Wait) bool {
					if w == nil {
						return false
					}
					select {
					case <-w.Ready():
						return true
					default:
						return false
					}
				})
				if i < 0 {
					t.Fatalf("no handle ready after claims %v", order)
				}
				if err := ws[i].Claim(); err != nil {
					t.Fatalf("Claim %d: %v", i, err)
				}
				m.Exit()
				checkRelayState(t, m)
				order = append(order, i)
				ws[i] = nil
			}
			want := []int{0, 1, 2, 3, 4, 5, 6}
			if c.reverse {
				slices.Reverse(want)
			}
			if !slices.Equal(order, want) {
				t.Errorf("%s claim order = %v, want %v", c.pol.Name(), order, want)
			}
		})
	}
}

// TestPolicyPerPredicateOverride: UsePolicy on the predicate drives the
// wake order even when the monitor has no policy installed — the
// override applies within the entry's waiters on the first-found-true
// relay path.
func TestPolicyPerPredicateOverride(t *testing.T) {
	m := New() // no monitor-wide policy
	defer testutil.NoLeaks(t, m)()
	tokens := m.NewInt("tokens", 0)
	p := m.MustCompile("tokens >= 1").UsePolicy(policy.LIFO)
	ch := make(chan int, 3)
	ws := make([]*Wait, 3)
	for i := range ws {
		ws[i] = p.Arm()
		ws[i].Subscribe(ch, i)
	}
	m.Do(func() { tokens.Set(1) })
	var order []int
	for range ws {
		select {
		case i := <-ch:
			if err := ws[i].Claim(); err != nil {
				t.Fatalf("claim %d: %v", i, err)
			}
			order = append(order, i)
			m.Exit()
		case <-time.After(5 * time.Second):
			t.Fatalf("wake chain stalled after %v", order)
		}
	}
	if want := []int{2, 1, 0}; !eqOrder(order, want) {
		t.Errorf("override wake order = %v, want %v (LIFO)", order, want)
	}
	if s := m.Stats(); s.PolicyWakes == 0 {
		t.Errorf("PolicyWakes = 0, want > 0 (per-predicate override counts)")
	}
}

// TestExplicitSignalPolicy: on an explicit monitor with a policy
// installed, Cond.Signal hands the armed-waiter notification to the
// policy's choice rather than the first armed.
func TestExplicitSignalPolicy(t *testing.T) {
	e := NewExplicit(WithPolicy(policy.LIFO))
	defer testutil.NoLeaks(t, e)()
	c := e.NewCond()
	ch := make(chan int, 3)
	ws := make([]*Wait, 3)
	ready := false // false while arming, so no handle is notified early
	for i := range ws {
		ws[i] = c.Arm(func() bool { return ready })
		ws[i].Subscribe(ch, i)
	}
	var order []int
	for range ws {
		e.Do(func() { ready = true; c.Signal() })
		select {
		case i := <-ch:
			if err := ws[i].Claim(); err != nil {
				t.Fatalf("claim %d: %v", i, err)
			}
			e.Exit()
			order = append(order, i)
		case <-time.After(5 * time.Second):
			t.Fatalf("signal chain stalled after %v", order)
		}
	}
	if want := []int{2, 1, 0}; !eqOrder(order, want) {
		t.Errorf("explicit signal order = %v, want %v (LIFO)", order, want)
	}
	if s := e.Stats(); s.PolicyWakes == 0 {
		t.Errorf("PolicyWakes = 0, want > 0")
	}
}

// TestStarvationAccounting: a wait that completes after longer than the
// configured starvation threshold increments Starved and pushes
// MaxWaitNs past the threshold, on every mechanism.
func TestStarvationAccounting(t *testing.T) {
	const threshold = 5 * time.Millisecond
	m := New(WithStarvationThreshold(threshold))
	b := NewBaseline(WithStarvationThreshold(threshold))
	e := NewExplicit(WithStarvationThreshold(threshold))
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
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.NoLeaks(t, tc.mech)()
			flag := false
			done := make(chan struct{})
			go func() {
				tc.mech.Enter()
				tc.mech.AwaitFunc(func() bool { return flag })
				tc.mech.Exit()
				close(done)
			}()
			testutil.WaitFor(t, 5*time.Second, 0, func() bool { return tc.mech.Waiting() == 1 }, "waiter parked")
			time.Sleep(2 * threshold)
			tc.mech.Do(func() { flag = true })
			tc.wake()
			<-done
			s := tc.mech.Stats()
			if s.Starved != 1 {
				t.Errorf("Starved = %d, want 1", s.Starved)
			}
			if s.MaxWaitNs < threshold.Nanoseconds() {
				t.Errorf("MaxWaitNs = %d, want >= %d", s.MaxWaitNs, threshold.Nanoseconds())
			}
		})
	}
}

// runStorm parks a prio-0 victim first, then runs rounds of one
// high-prio (100) arrival plus one token each: the installed policy
// decides, deterministically, who takes each token. It returns the round
// at which the victim completed — 0 means the very first token, rounds
// means the victim only completed in the final drain — plus the monitor
// for stats assertions.
func runStorm(t *testing.T, pol policy.Policy) (victimRound int, m *Monitor) {
	t.Helper()
	const rounds = 8
	m = New(WithPolicy(pol), WithStarvationThreshold(time.Millisecond))
	tokens := m.NewInt("tokens", 0)
	p := m.MustCompile("tokens >= 1 && prio >= 0")

	await := func(prio int64, done chan struct{}) {
		m.Enter()
		if err := p.Await(BindInt("prio", prio)); err != nil {
			t.Errorf("await(prio=%d): %v", prio, err)
		}
		tokens.Add(-1)
		m.Exit()
		done <- struct{}{}
	}

	victimDone := make(chan struct{}, 1)
	go await(0, victimDone)
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return m.Waiting() == 1 }, "victim parked")

	highDone := make(chan struct{}, rounds)
	spawned, highFinished := 0, 0
	victimRound = -1
	for i := 0; i < rounds && victimRound < 0; i++ {
		go await(100, highDone)
		spawned++
		testutil.WaitFor(t, 5*time.Second, 0, func() bool { return m.Waiting() == 2 },
			"round %d: victim and high-prio waiter parked", i)
		m.Do(func() { tokens.Add(1) }) // one token: the policy decides who takes it
		select {
		case <-victimDone:
			victimRound = i
			victimDone = nil
		case <-highDone:
			highFinished++
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: no waiter took the token", i)
		}
	}
	// Drain whoever is still parked, one token per waiter.
	for victimDone != nil || highFinished < spawned {
		m.Do(func() { tokens.Add(1) })
		select {
		case <-victimDone:
			victimRound = rounds
			victimDone = nil
		case <-highDone:
			highFinished++
		case <-time.After(5 * time.Second):
			t.Fatal("drain stalled")
		}
	}
	return victimRound, m
}

// TestPriorityStarvesVictimFIFODoesNot pins the policy trade-off the
// package documents, on the same deterministic schedule: under Priority
// every round's token goes to the prio-100 arrival and the victim only
// completes in the drain (counted as starved); under FIFO the victim's
// earlier arrival wins the very first token.
func TestPriorityStarvesVictimFIFODoesNot(t *testing.T) {
	rankFn := func(binds map[string]int64) int64 { return binds["prio"] }

	t.Run("priority", func(t *testing.T) {
		round, m := runStorm(t, policy.Priority(rankFn))
		defer testutil.NoLeaks(t, m)()
		if round != 8 {
			t.Errorf("victim completed at round %d, want only in the drain (8)", round)
		}
		if s := m.Stats(); s.Starved == 0 {
			t.Errorf("Starved = 0, want > 0 under Priority with a high-prio storm")
		}
	})
	t.Run("fifo", func(t *testing.T) {
		round, m := runStorm(t, policy.FIFO)
		defer testutil.NoLeaks(t, m)()
		if round != 0 {
			t.Errorf("victim completed at round %d, want 0 (earliest arrival wins under FIFO)", round)
		}
	})
}
