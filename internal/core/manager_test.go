package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// startWaiter parks a goroutine on pred and returns a channel closed when
// it gets through. It returns only once the waiter is actually parked
// (the monitor's Waiting count has grown), so callers can immediately
// drive state changes without racing the registration.
func startWaiter(t *testing.T, m *Monitor, pred string, binds ...Binding) chan struct{} {
	t.Helper()
	before := m.Waiting()
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Enter()
		if err := m.Await(pred, binds...); err != nil {
			t.Errorf("Await(%q): %v", pred, err)
		}
		m.Exit()
	}()
	testutil.WaitFor(t, 10*time.Second, 0, func() bool { return m.Waiting() > before },
		"waiter on %q parked", pred)
	return done
}

func TestEquivalenceTagSignaling(t *testing.T) {
	// Three waiters on x == 3, x == 6, x == 8 (the §4.3.2 example): setting
	// x to 8 must wake exactly the third, via one O(1) hash probe.
	m := New()
	x := m.NewInt("x", 0)
	d3 := startWaiter(t, m, "x == 3")
	d6 := startWaiter(t, m, "x == 6")
	d8 := startWaiter(t, m, "x == 8")

	m.Do(func() { x.Set(8) })
	waitTimeout(t, 5*time.Second, "x==8 waiter", func() { <-d8 })
	select {
	case <-d3:
		t.Fatal("x==3 waiter released with x=8")
	case <-d6:
		t.Fatal("x==6 waiter released with x=8")
	case <-time.After(30 * time.Millisecond):
	}
	s := m.Stats()
	if s.FutileWakeups != 0 {
		t.Errorf("futile wakeups = %d, want 0 (only the true predicate is signaled)", s.FutileWakeups)
	}
	// Release the rest for cleanliness.
	m.Do(func() { x.Set(3) })
	waitTimeout(t, 5*time.Second, "x==3 waiter", func() { <-d3 })
	m.Do(func() { x.Set(6) })
	waitTimeout(t, 5*time.Second, "x==6 waiter", func() { <-d6 })
}

func TestThresholdHeapSignaling(t *testing.T) {
	// Waiters on x > 5, x >= 8, x < 3: the min-heap prunes both ≥-side
	// predicates with one root check while x stays in [3, 5].
	m := New()
	x := m.NewInt("x", 4)
	dGt5 := startWaiter(t, m, "x > 5")
	dGe8 := startWaiter(t, m, "x >= 8")
	dLt3 := startWaiter(t, m, "x < 3")

	// x = 4 satisfies nobody.
	m.Do(func() { x.Set(4) })
	select {
	case <-dGt5:
		t.Fatal("x>5 released at x=4")
	case <-dGe8:
		t.Fatal("x>=8 released at x=4")
	case <-dLt3:
		t.Fatal("x<3 released at x=4")
	case <-time.After(30 * time.Millisecond):
	}

	m.Do(func() { x.Set(6) }) // only x > 5 becomes true
	waitTimeout(t, 5*time.Second, "x>5 waiter", func() { <-dGt5 })

	m.Do(func() { x.Set(9) }) // x >= 8 true
	waitTimeout(t, 5*time.Second, "x>=8 waiter", func() { <-dGe8 })

	m.Do(func() { x.Set(0) }) // x < 3 true
	waitTimeout(t, 5*time.Second, "x<3 waiter", func() { <-dLt3 })

	if s := m.Stats(); s.FutileWakeups != 0 {
		t.Errorf("futile wakeups = %d, want 0", s.FutileWakeups)
	}
}

func TestThresholdTieBreakGeBeforeGt(t *testing.T) {
	// Fig. 4 ordering detail: with both x > 3 and x ≥ 3 registered, the ≥
	// tag must be checked first, because x > 3 false does not prune x ≥ 3.
	m := New()
	x := m.NewInt("x", 0)
	dGt := startWaiter(t, m, "x > 3")
	dGe := startWaiter(t, m, "x >= 3")
	m.Do(func() { x.Set(3) }) // only ≥ is true
	waitTimeout(t, 5*time.Second, "x>=3 waiter", func() { <-dGe })
	select {
	case <-dGt:
		t.Fatal("x>3 released at x=3")
	case <-time.After(30 * time.Millisecond):
	}
	m.Do(func() { x.Set(4) })
	waitTimeout(t, 5*time.Second, "x>3 waiter", func() { <-dGt })
}

func TestFig4PopAndReinsert(t *testing.T) {
	// The worked example of §4.3.2: P1 = (x ≥ 5) ∧ (y ≠ 1) with tag
	// (x,5,≥); P2 = (x > 7) with tag (x,7,>). With x=9, y=1: the root tag
	// (5,≥) is true but P1 is false; the search must pop it, find P2 true
	// under the next root (7,>), signal P2's waiter, and reinsert the tag.
	m := New()
	x := m.NewInt("x", 0)
	y := m.NewInt("y", 1)
	_ = y
	d1 := startWaiter(t, m, "x >= 5 && y != 1")
	d2 := startWaiter(t, m, "x > 7")

	m.Do(func() { x.Set(9) }) // y stays 1: P1 false, P2 true
	waitTimeout(t, 5*time.Second, "P2 waiter", func() { <-d2 })
	select {
	case <-d1:
		t.Fatal("P1 released while y == 1")
	case <-time.After(30 * time.Millisecond):
	}
	// The popped tag must be back in the heap: making P1 true must work.
	m.Do(func() { y.Set(2) })
	waitTimeout(t, 5*time.Second, "P1 waiter", func() { <-d1 })
	if s := m.Stats(); s.FutileWakeups != 0 {
		t.Errorf("futile wakeups = %d, want 0", s.FutileWakeups)
	}
}

func TestSharedTagAcrossEntries(t *testing.T) {
	// (x == 5 && y > 0) and (x == 5 && y < 0) share the equivalence tag
	// x == 5; the hash probe must check both entries and pick the true one.
	m := New()
	x := m.NewInt("x", 0)
	y := m.NewInt("y", 1)
	dPos := startWaiter(t, m, "x == 5 && y > 0")
	dNeg := startWaiter(t, m, "x == 5 && y < 0")

	m.Do(func() { x.Set(5) }) // y = 1: only the first is true
	waitTimeout(t, 5*time.Second, "y>0 waiter", func() { <-dPos })
	select {
	case <-dNeg:
		t.Fatal("y<0 waiter released with y=1")
	case <-time.After(30 * time.Millisecond):
	}
	m.Do(func() { y.Set(-1); x.Set(5) })
	waitTimeout(t, 5*time.Second, "y<0 waiter", func() { <-dNeg })
}

func TestBoolVarEquivalenceTag(t *testing.T) {
	m := New()
	open := m.NewBool("open", false)
	x := m.NewInt("x", 1)
	done := startWaiter(t, m, "open")
	negDone := startWaiter(t, m, "!open && x == 0")

	m.Do(func() { open.Set(true) })
	waitTimeout(t, 5*time.Second, "open waiter", func() { <-done })
	select {
	case <-negDone:
		t.Fatal("!open waiter released while open")
	case <-time.After(30 * time.Millisecond):
	}
	m.Do(func() { open.Set(false); x.Set(0) })
	waitTimeout(t, 5*time.Second, "!open waiter", func() { <-negDone })
}

func TestDisjunctionAcrossGroups(t *testing.T) {
	// (x ≥ 8) ∨ (y == 3): one entry registered under two different tags in
	// two different shared-expression groups; either route must wake it.
	m := New()
	x := m.NewInt("x", 0)
	y := m.NewInt("y", 0)

	d := startWaiter(t, m, "x >= 8 || y == 3")
	m.Do(func() { y.Set(3) })
	waitTimeout(t, 5*time.Second, "disjunction waiter (y route)", func() { <-d })

	// Reset y first so the second waiter actually parks and must be woken
	// through the x route (with y still 3 it would fast-path instead).
	m.Do(func() { y.Set(0) })
	d = startWaiter(t, m, "x >= 8 || y == 3")
	m.Do(func() { x.Set(8) })
	waitTimeout(t, 5*time.Second, "disjunction waiter (x route)", func() { <-d })
}

func TestNoneTagExhaustiveSearch(t *testing.T) {
	// x != 5 is not taggable; it must still work via the None list.
	m := New()
	x := m.NewInt("x", 5)
	d := startWaiter(t, m, "x != 5")
	m.Do(func() { x.Set(6) })
	waitTimeout(t, 5*time.Second, "x!=5 waiter", func() { <-d })
}

func TestManyWaitersSameEntry(t *testing.T) {
	// Multiple waiters on one canonical predicate share one entry and are
	// released one per satisfying state change.
	m := New()
	tokens := m.NewInt("tokens", 0)
	const n = 10
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Enter()
			if err := m.Await("tokens > 0"); err != nil {
				t.Error(err)
			}
			tokens.Add(-1)
			m.Exit()
		}()
	}
	waitTimeout(t, 10*time.Second, "token consumers", func() {
		for i := 0; i < n; i++ {
			m.Do(func() { tokens.Add(1) })
		}
		wg.Wait()
	})
	m.Do(func() {
		if v := tokens.Get(); v != 0 {
			t.Errorf("tokens = %d, want 0", v)
		}
	})
}

func TestRelayOnWaitNotJustExit(t *testing.T) {
	// A thread that goes to sleep must first relay: T1 makes P2 true and
	// then waits on P1; T2 (waiting on P2) must be released by T1's
	// pre-wait relay even though T1 never exits.
	m := New()
	a := m.NewInt("a", 0)
	m.NewInt("b", 0)

	d2 := startWaiter(t, m, "a == 1")
	d1 := make(chan struct{})
	go func() {
		defer close(d1)
		m.Enter()
		a.Set(1) // makes P2 true
		if err := m.Await("b == 1"); err != nil {
			t.Error(err)
		}
		m.Exit()
	}()
	waitTimeout(t, 5*time.Second, "P2 waiter released by pre-wait relay", func() { <-d2 })
	// Release T1 too.
	m.Do(func() { m.vars["b"].ic.Set(1) })
	waitTimeout(t, 5*time.Second, "P1 waiter", func() { <-d1 })
}

func TestGroupsCleanedUp(t *testing.T) {
	m := New()
	x := m.NewInt("x", 0)
	d := startWaiter(t, m, "x >= num", BindInt("num", 10))
	if _, _, groups, _ := m.DebugCounts(); groups != 1 {
		t.Errorf("groups = %d while waiting, want 1", groups)
	}
	m.Do(func() { x.Set(10) })
	waitTimeout(t, 5*time.Second, "waiter", func() { <-d })
	// Entry parked: its tag nodes are removed and the group is empty.
	if _, inactive, groups, _ := m.DebugCounts(); groups != 0 || inactive != 1 {
		t.Errorf("groups=%d inactive=%d after wait, want 0/1", groups, inactive)
	}
	checkHotList(t, m)
}

func TestConcurrentDistinctPredicates(t *testing.T) {
	// A mix of equivalence, threshold, and None predicates under load.
	m := New()
	x := m.NewInt("x", 0)
	var wg sync.WaitGroup
	preds := []struct {
		pred  string
		binds func(i int) []Binding
	}{
		{"x == target", func(i int) []Binding { return []Binding{BindInt("target", int64(i))} }},
		{"x >= lo", func(i int) []Binding { return []Binding{BindInt("lo", int64(i))} }},
		{"x != bad && x >= lo2", func(i int) []Binding {
			return []Binding{BindInt("bad", -1), BindInt("lo2", int64(i))}
		}},
	}
	const rounds = 30
	var completed atomic.Int64
	for i := 1; i <= rounds; i++ {
		for _, p := range preds {
			wg.Add(1)
			go func(pred string, binds []Binding) {
				defer wg.Done()
				m.Enter()
				if err := m.Await(pred, binds...); err != nil {
					t.Errorf("Await(%q): %v", pred, err)
				}
				m.Exit()
				completed.Add(1)
			}(p.pred, p.binds(i))
		}
	}
	waitTimeout(t, 20*time.Second, "mixed predicates", func() {
		for v := int64(1); v <= rounds; v++ {
			m.Do(func() { x.Set(v) })
			// x == v is transient: hold it until all three round-v waiters
			// (and every straggler of earlier rounds) have gotten through,
			// so the equivalence waiter cannot miss its only true state.
			testutil.WaitFor(t, 20*time.Second, 0, func() bool {
				return completed.Load() >= 3*v
			}, "round %d waiters released", v)
		}
		wg.Wait()
	})
	checkHotList(t, m)
}

func TestDebugCountsShape(t *testing.T) {
	m := New()
	m.NewInt("x", 0)
	active, inactive, groups, none := m.DebugCounts()
	if active+inactive+groups+none != 0 {
		t.Errorf("fresh monitor counts = %d/%d/%d/%d", active, inactive, groups, none)
	}
}

func TestCanonicalIdentityMergesSpellings(t *testing.T) {
	// x - 2 >= y + 1 and x >= y + 3 globalize to the same canonical
	// predicate and must share one entry (one registration).
	m := New()
	x := m.NewInt("x", 0)
	m.NewInt("y", 0)
	d1 := startWaiter(t, m, "x - 2 >= y + 1")
	d2 := startWaiter(t, m, "x >= y + 3")
	if s := m.Stats(); s.Registrations != 1 {
		t.Errorf("registrations = %d, want 1 (syntax equivalence)", s.Registrations)
	}
	m.Do(func() { x.Set(3) })
	waitTimeout(t, 5*time.Second, "both spellings", func() { <-d1; <-d2 })
}

func TestAwaitErrorDoesNotCorrupt(t *testing.T) {
	m := New()
	x := m.NewInt("x", 0)
	m.Enter()
	if err := m.Await("x > "); err == nil {
		t.Fatal("want parse error")
	}
	m.Exit()
	d := startWaiter(t, m, "x > 0")
	m.Do(func() { x.Set(1) })
	waitTimeout(t, 5*time.Second, "waiter after error", func() { <-d })
}

func TestHeapStressManyKeys(t *testing.T) {
	// 64 distinct threshold keys live in one heap; release in random-ish
	// order and verify each wake-up matches a true predicate.
	m := New()
	x := m.NewInt("x", 0)
	const n = 64
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(k int64) {
			defer wg.Done()
			m.Enter()
			if err := m.Await("x >= k", BindInt("k", k)); err != nil {
				t.Error(err)
			}
			if x.Get() < k {
				t.Errorf("woke with x=%d < k=%d", x.Get(), k)
			}
			m.Exit()
		}(int64(i))
	}
	// Let every waiter park so the heap really holds all 64 keys, then
	// release monotonically (x >= k stays true once true, so no wake-up
	// can be lost even if a release overtakes a slow waiter).
	testutil.WaitFor(t, 10*time.Second, 0, func() bool { return m.Waiting() == n },
		"all %d threshold waiters parked", n)
	waitTimeout(t, 20*time.Second, "heap stress", func() {
		for v := int64(1); v <= n; v++ {
			m.Do(func() { x.Set(v) })
		}
		wg.Wait()
	})
	checkHotList(t, m)
}

// checkHotList asserts the hot-list invariant of the condition manager:
// cm.hot holds exactly the groups of cm.groups that have waiters, each
// once and at its own hotIdx, and every other group has hotIdx -1.
func checkHotList(t *testing.T, m *Monitor) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	listed := map[*sharedGroup]bool{}
	for i, g := range m.cm.hot {
		if listed[g] {
			t.Errorf("group %q is on the hot list twice", g.exprStr)
		}
		listed[g] = true
		if g.hotIdx != i {
			t.Errorf("group %q at hot slot %d has hotIdx %d", g.exprStr, i, g.hotIdx)
		}
		if m.cm.groups[g.exprStr] != g {
			t.Errorf("hot group %q is not in the group index", g.exprStr)
		}
	}
	for _, g := range m.cm.groups {
		switch {
		case g.waiters > 0 && !listed[g]:
			t.Errorf("group %q has %d waiters but is not on the hot list", g.exprStr, g.waiters)
		case g.waiters == 0 && listed[g]:
			t.Errorf("group %q has no waiters but is on the hot list", g.exprStr)
		case !listed[g] && g.hotIdx != -1:
			t.Errorf("group %q is off the hot list with hotIdx %d", g.exprStr, g.hotIdx)
		}
	}
}

// hotGroups returns the length of the hot list.
func hotGroups(m *Monitor) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cm.hot)
}

// TestHotListSkipsColdGroups: a static predicate keeps its group after
// its only waiter leaves, but a group without waiters is off the hot
// list, so the relay search never steps over it.
func TestHotListSkipsColdGroups(t *testing.T) {
	m := New()
	const cold = 2048
	cells := make([]*IntCell, cold)
	for j := range cells {
		cells[j] = m.NewInt(fmt.Sprintf("t%d", j), 0)
	}
	for j := range cells {
		m.MustCompile(fmt.Sprintf("t%d >= 1", j)).Arm().Cancel()
	}
	if _, _, groups, _ := m.DebugCounts(); groups != cold {
		t.Errorf("groups = %d after arm and cancel, want %d", groups, cold)
	}
	if n := hotGroups(m); n != 0 {
		t.Errorf("hot groups = %d with no waiter, want 0", n)
	}
	checkHotList(t, m)

	d := startWaiter(t, m, "t7 >= 1")
	if n := hotGroups(m); n != 1 {
		t.Errorf("hot groups = %d with one parked waiter, want 1", n)
	}
	checkHotList(t, m)
	m.Do(func() { cells[7].Set(1) })
	waitTimeout(t, 5*time.Second, "parked waiter", func() { <-d })
	if n := hotGroups(m); n != 0 {
		t.Errorf("hot groups = %d after the claim, want 0", n)
	}
	if _, _, groups, _ := m.DebugCounts(); groups != cold {
		t.Errorf("groups = %d after the claim, want %d", groups, cold)
	}
	checkHotList(t, m)
}

// TestRelayOrderReplays: the relay search's pick depends only on the
// operation sequence. 64 handles on distinct static predicates turn true
// in one Do; the single relay signal then visits them one claim at a
// time, and two fresh monitors must visit them in the same order.
func TestRelayOrderReplays(t *testing.T) {
	claimOrder := func() []int {
		m := New()
		const n = 64
		cells := make([]*IntCell, n)
		ws := make([]*Wait, n)
		for i := range cells {
			cells[i] = m.NewInt(fmt.Sprintf("s%d", i), 0)
			ws[i] = m.MustCompile(fmt.Sprintf("s%d >= 1", i)).Arm()
		}
		m.Do(func() {
			for _, c := range cells {
				c.Set(1)
			}
		})
		var order []int
		for len(order) < n {
			claimed := false
			for i, w := range ws {
				if w == nil {
					continue
				}
				select {
				case <-w.Ready():
				default:
					continue
				}
				if err := w.Claim(); err != nil {
					t.Fatalf("Claim s%d: %v", i, err)
				}
				m.Exit()
				order = append(order, i)
				ws[i] = nil
				claimed = true
			}
			if !claimed {
				t.Fatalf("no handle ready after %d claims", len(order))
			}
		}
		checkHotList(t, m)
		return order
	}
	if a, b := claimOrder(), claimOrder(); !slices.Equal(a, b) {
		t.Errorf("claim orders differ:\n%v\n%v", a, b)
	}
}

// TestSearchHeapPopAllocFree: a threshold root that holds but has no
// signalable waiter (its handle took a free notification at arm) is
// popped and reinserted by every relay search. The pop list is reused,
// so an Enter/Exit over it allocates nothing.
func TestSearchHeapPopAllocFree(t *testing.T) {
	m := New()
	m.NewInt("x", 1)
	w := m.MustCompile("x >= 1").Arm()
	select {
	case <-w.Ready():
	default:
		t.Fatal("handle on a true predicate not notified at arm")
	}
	before := m.Stats().TagChecks
	if a := testing.AllocsPerRun(100, func() { m.Enter(); m.Exit() }); a != 0 {
		t.Errorf("Enter/Exit over a popped heap root allocates %v, want 0", a)
	}
	if m.Stats().TagChecks == before {
		t.Error("no relay search examined the heap root")
	}
	w.Cancel()
	checkHotList(t, m)
}

func TestBaselineMonitor(t *testing.T) {
	b := NewBaseline()
	count := 0
	var wg sync.WaitGroup
	const n = 8
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Enter()
			b.Await(func() bool { return count > 0 })
			count--
			b.Exit()
		}()
	}
	waitTimeout(t, 10*time.Second, "baseline consumers", func() {
		for i := 0; i < n; i++ {
			b.Do(func() { count++ })
		}
		wg.Wait()
	})
	if count != 0 {
		t.Errorf("count = %d, want 0", count)
	}
	s := b.Stats()
	if s.Broadcasts == 0 {
		t.Error("baseline never broadcast")
	}
	if s.Signals != 0 {
		t.Error("baseline should not use single signals")
	}
}

func TestBaselineFastPath(t *testing.T) {
	b := NewBaseline()
	b.Enter()
	b.Await(func() bool { return true })
	b.Exit()
	if s := b.Stats(); s.FastPath != 1 || s.Wakeups != 0 {
		t.Errorf("stats = %s", s)
	}
}

func TestBaselinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBaseline().Exit()
}

func TestExplicitMonitor(t *testing.T) {
	e := NewExplicit()
	notEmpty := e.NewCond()
	notFull := e.NewCond()
	const cap = 4
	queue := 0
	var wg sync.WaitGroup
	const items = 50
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		for i := 0; i < items; i++ {
			e.Enter()
			notFull.Await(func() bool { return queue < cap })
			queue++
			notEmpty.Signal()
			e.Exit()
		}
	}()
	go func() { // consumer
		defer wg.Done()
		for i := 0; i < items; i++ {
			e.Enter()
			notEmpty.Await(func() bool { return queue > 0 })
			queue--
			notFull.Signal()
			e.Exit()
		}
	}()
	waitTimeout(t, 10*time.Second, "explicit producer/consumer", wg.Wait)
	if queue != 0 {
		t.Errorf("queue = %d, want 0", queue)
	}
	s := e.Stats()
	if s.Signals == 0 {
		t.Error("explicit monitor recorded no signals")
	}
}

func TestExplicitBroadcast(t *testing.T) {
	e := NewExplicit()
	c := e.NewCond()
	released := 0
	var wg sync.WaitGroup
	gate := false
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Enter()
			c.Await(func() bool { return gate })
			released++
			e.Exit()
		}()
	}
	testutil.WaitFor(t, 10*time.Second, 0, func() bool { return e.Waiting() == 5 },
		"all 5 broadcast waiters parked")
	e.Enter()
	gate = true
	c.Broadcast()
	e.Exit()
	waitTimeout(t, 5*time.Second, "broadcast waiters", wg.Wait)
	if released != 5 {
		t.Errorf("released = %d, want 5", released)
	}
	if s := e.Stats(); s.Broadcasts != 1 || s.Wakeups != 5 {
		t.Errorf("stats = %s", s)
	}
}

func TestExplicitPanics(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	check("exit", func() { NewExplicit().Exit() })
	check("await", func() {
		e := NewExplicit()
		e.NewCond().Await(func() bool { return true })
	})
}

func TestStressAllMechanismsBoundedBuffer(t *testing.T) {
	// The same bounded-buffer workload on all four mechanisms, verifying
	// conservation (everything produced is consumed) and termination.
	const capBuf, producers, consumers, itemsEach = 8, 4, 4, 200

	t.Run("autosynch", func(t *testing.T) {
		runAutoBB(t, New(), capBuf, producers, consumers, itemsEach)
	})
	t.Run("autosynch-t", func(t *testing.T) {
		runAutoBB(t, New(WithoutTagging()), capBuf, producers, consumers, itemsEach)
	})
	t.Run("baseline", func(t *testing.T) {
		b := NewBaseline()
		count := 0
		var produced, consumed int64
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < itemsEach; i++ {
					b.Enter()
					b.Await(func() bool { return count < capBuf })
					count++
					produced++
					b.Exit()
				}
			}()
		}
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < itemsEach; i++ {
					b.Enter()
					b.Await(func() bool { return count > 0 })
					count--
					consumed++
					b.Exit()
				}
			}()
		}
		waitTimeout(t, 30*time.Second, "baseline bb", wg.Wait)
		if produced != consumed || produced != producers*itemsEach {
			t.Errorf("produced=%d consumed=%d", produced, consumed)
		}
	})
	t.Run("explicit", func(t *testing.T) {
		e := NewExplicit()
		notFull := e.NewCond()
		notEmpty := e.NewCond()
		count := 0
		var produced, consumed int64
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < itemsEach; i++ {
					e.Enter()
					notFull.Await(func() bool { return count < capBuf })
					count++
					produced++
					notEmpty.Signal()
					e.Exit()
				}
			}()
		}
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < itemsEach; i++ {
					e.Enter()
					notEmpty.Await(func() bool { return count > 0 })
					count--
					consumed++
					notFull.Signal()
					e.Exit()
				}
			}()
		}
		waitTimeout(t, 30*time.Second, "explicit bb", wg.Wait)
		if produced != consumed || produced != producers*itemsEach {
			t.Errorf("produced=%d consumed=%d", produced, consumed)
		}
	})
}

func runAutoBB(t *testing.T, m *Monitor, capBuf, producers, consumers, itemsEach int) {
	t.Helper()
	count := m.NewInt("count", 0)
	m.NewInt("cap", int64(capBuf))
	var produced, consumed int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < itemsEach; i++ {
				m.Enter()
				if err := m.Await("count < cap"); err != nil {
					t.Error(err)
					m.Exit()
					return
				}
				count.Add(1)
				produced++
				m.Exit()
			}
		}()
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < itemsEach; i++ {
				m.Enter()
				if err := m.Await("count > 0"); err != nil {
					t.Error(err)
					m.Exit()
					return
				}
				count.Add(-1)
				consumed++
				m.Exit()
			}
		}()
	}
	waitTimeout(t, 30*time.Second, fmt.Sprintf("bb tagging=%t", m.Tagging()), wg.Wait)
	if produced != consumed || int(produced) != producers*itemsEach {
		t.Errorf("produced=%d consumed=%d want %d", produced, consumed, producers*itemsEach)
	}
	if s := m.Stats(); s.Broadcasts != 0 {
		t.Errorf("broadcasts = %d, want 0", s.Broadcasts)
	}
}
