package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/tag"
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
	checkRelayState(t, m)
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
	checkRelayState(t, m)
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
	checkRelayState(t, m)
}

// checkRelayState asserts the condition manager's state at a lock
// release: cand holds each group at most once, with its flag set (and no
// other group has the flag); every group a cell lists as a reader is a
// live group of cm.groups, so no stale reader survives an eviction; every
// cached entry is either active or on the inactive ring, not both, and
// the parked count is the ring's length; an active entry is on the None
// list exactly when a conjunction has no node, and each None entry knows
// its index; the tag nodes live with the cached entries (checkTagNodes);
// the entry kept for the next build is unreachable (checkKeptEntry); the
// spare list holds at most m.waiting
// waiters, each unregistered, unnotified, with an empty channel and no
// give-up trigger; and, with no signal pending, no active or None entry
// with an unnotified waiter evaluates true (Def. 4), the state the
// write-driven search relies on.
func checkRelayState(t *testing.T, m *Monitor) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	listed := map[*sharedGroup]bool{}
	for _, g := range m.cm.cand {
		if listed[g] {
			t.Errorf("group %q is a search candidate twice", g.exprStr)
		}
		listed[g] = true
		if !g.cand {
			t.Errorf("candidate group %q has its flag clear", g.exprStr)
		}
		if m.cm.groups[g.exprStr] != g {
			t.Errorf("candidate group %q is not in the group index", g.exprStr)
		}
	}
	for _, g := range m.cm.groups {
		if g.cand && !listed[g] {
			t.Errorf("group %q is flagged but not a search candidate", g.exprStr)
		}
	}
	for name, s := range m.vars {
		for _, r := range s.watch().readers {
			if m.cm.groups[r.g.exprStr] != r.g {
				t.Errorf("cell %s lists reader group %q, which is not in the group index", name, r.g.exprStr)
			}
		}
	}
	ring := 0
	for e := m.cm.lru.next; e != &m.cm.lru; e = e.next {
		ring++
		if m.cm.entries[e.canon] != e {
			t.Errorf("parked entry %q is not in the entry map", e.canon)
		}
	}
	if ring != m.cm.parked {
		t.Errorf("inactive ring holds %d entries, parked count is %d", ring, m.cm.parked)
	}
	for _, e := range m.cm.entries {
		if e.active == (e.prev != nil) {
			t.Errorf("cached entry %q: active %v, on the inactive ring %v", e.canon, e.active, e.prev != nil)
		}
		if e.active && slices.Contains(e.nodes, nil) != (e.noneIdx >= 0) {
			t.Errorf("active entry %q: a conjunction without a node %v, on the None list at %d", e.canon, slices.Contains(e.nodes, nil), e.noneIdx)
		}
	}
	for i, e := range m.cm.none {
		if int(e.noneIdx) != i {
			t.Errorf("None list entry %q at %d has index %d", e.canon, i, e.noneIdx)
		}
	}
	checkTagNodes(t, m)
	checkKeptEntry(t, m)
	if len(m.cm.spare) > m.waiting {
		t.Errorf("%d spare waiters, %d registered", len(m.cm.spare), m.waiting)
	}
	for _, w := range m.cm.spare {
		if w.idx != -1 || w.e != nil || w.notified || len(w.ready) != 0 || w.timer != nil || w.stopCtx != nil {
			t.Errorf("spare waiter in use: idx %d, entry %v, notified %v, %d tokens, timer %v, ctx stop %v",
				w.idx, w.e != nil, w.notified, len(w.ready), w.timer != nil, w.stopCtx != nil)
		}
	}
	if m.cm.pending > 0 {
		return
	}
	holds := func(e *entry) {
		if e.signalable() && e.evalFn() {
			t.Errorf("no signal pending, yet %q holds with an unnotified waiter", e.canon)
		}
	}
	for _, e := range m.cm.entries {
		if e.active {
			holds(e)
		}
	}
	for _, e := range m.cm.none {
		holds(e)
	}
}

// checkTagNodes asserts that the tag nodes live exactly as long as a
// cached entry names them. Every node of a cached entry has its group in
// cm.groups; its refs count the (cached entry, conjunction) pairs that
// name it; its entries are exactly the active entries that name it, each
// once; a threshold node is in its heap exactly when it has entries, and
// an equivalence node stays in its group's table. Every node in a table or
// a heap is named by a cached entry. Called with the monitor locked.
func checkTagNodes(t *testing.T, m *Monitor) {
	t.Helper()
	refs := map[*tagNode]int32{}
	named := map[*tagNode][]*entry{} // active entries naming the node, once each
	for _, e := range m.cm.entries {
		for i, n := range e.nodes {
			if n == nil {
				continue
			}
			refs[n]++
			if m.cm.groups[n.group.exprStr] != n.group {
				t.Errorf("entry %q names a node of group %q, which is not in the group index", e.canon, n.group.exprStr)
			}
			if e.active && !slices.Contains(e.nodes[:i], n) {
				named[n] = append(named[n], e)
			}
		}
	}
	for n, want := range refs {
		if n.refs != want {
			t.Errorf("node (%s %s %d): refs %d, named by %d cached entry conjunctions", n.group.exprStr, n.op, n.key, n.refs, want)
		}
		if len(n.entries) != len(named[n]) {
			t.Errorf("node (%s %s %d) holds %d entries, %d active entries name it", n.group.exprStr, n.op, n.key, len(n.entries), len(named[n]))
		}
		for i, e := range n.entries {
			if !slices.Contains(named[n], e) || slices.Contains(n.entries[:i], e) {
				t.Errorf("node (%s %s %d) holds entry %q, which is not an active entry naming it once", n.group.exprStr, n.op, n.key, e.canon)
			}
		}
		if n.kind == tag.Equivalence {
			if n.group.equiv[n.key] != n {
				t.Errorf("equivalence node (%s == %d) is not in its group's table", n.group.exprStr, n.key)
			}
			continue
		}
		h := n.group.heapFor(n.op)
		resident := n.heapIdx >= 0 && int(n.heapIdx) < h.Len() && h.items[n.heapIdx] == n
		if resident != (len(n.entries) > 0) {
			t.Errorf("threshold node (%s %s %d): in its heap %v, %d entries", n.group.exprStr, n.op, n.key, resident, len(n.entries))
		}
		if !resident && n.heapIdx != -1 {
			t.Errorf("threshold node (%s %s %d) out of its heap has index %d", n.group.exprStr, n.op, n.key, n.heapIdx)
		}
	}
	for _, g := range m.cm.groups {
		for k, n := range g.equiv {
			if n.refs <= 0 || refs[n] == 0 || n.key != k {
				t.Errorf("group %q table holds node %d under key %d with refs %d, named %d times", g.exprStr, n.key, k, n.refs, refs[n])
			}
		}
		for _, h := range []*tagHeap{&g.minHeap, &g.maxHeap} {
			for i, n := range h.items {
				if int(n.heapIdx) != i || refs[n] == 0 {
					t.Errorf("group %q heap holds node (%s %d) at %d with index %d, named %d times", g.exprStr, n.op, n.key, i, n.heapIdx, refs[n])
				}
			}
		}
	}
}

// checkKeptEntry asserts that the entry kept for the next fresh build is
// unreachable from the monitor's live state: it is not cached, not on
// the inactive ring or the None list, has no waiters, and no node lists
// it. Each node it keeps has refs 0 and sits in no heap and no table, so
// the build that reuses it takes it from no other entry. The build
// scratch is empty. Called with the monitor locked.
func checkKeptEntry(t *testing.T, m *Monitor) {
	t.Helper()
	if len(m.cm.free) != 0 {
		t.Errorf("%d recycled nodes left between builds", len(m.cm.free))
	}
	k := m.cm.kept
	if k == nil {
		return
	}
	for id, e := range m.cm.entries {
		if e == k {
			t.Errorf("the kept entry is cached under %q", id)
		}
	}
	for e := m.cm.lru.next; e != &m.cm.lru; e = e.next {
		if e == k {
			t.Errorf("the kept entry %q is on the inactive ring", k.canon)
		}
	}
	if k.prev != nil || k.next != nil || k.active {
		t.Errorf("the kept entry %q is linked (%v) or active (%v)", k.canon, k.prev != nil || k.next != nil, k.active)
	}
	if slices.Contains(m.cm.none, k) || k.noneIdx != -1 {
		t.Errorf("the kept entry %q is on the None list (index %d)", k.canon, k.noneIdx)
	}
	if len(k.waiters) != 0 || k.unnotified != 0 {
		t.Errorf("the kept entry %q has %d waiters, %d unnotified", k.canon, len(k.waiters), k.unnotified)
	}
	lists := func(n *tagNode) {
		if slices.Contains(n.entries, k) {
			t.Errorf("node (%s %d) lists the kept entry %q", n.op, n.key, k.canon)
		}
	}
	inTable := map[*tagNode]bool{}
	for _, g := range m.cm.groups {
		for _, n := range g.equiv {
			inTable[n] = true
			lists(n)
		}
		for _, h := range []*tagHeap{&g.minHeap, &g.maxHeap} {
			for _, n := range h.items {
				inTable[n] = true
				lists(n)
			}
		}
	}
	for _, e := range m.cm.entries {
		for _, n := range e.nodes {
			if n != nil {
				lists(n)
			}
		}
	}
	for _, n := range k.nodes {
		if n == nil {
			continue
		}
		if n.refs != 0 || n.heapIdx != -1 || len(n.entries) != 0 || inTable[n] {
			t.Errorf("the kept entry %q keeps node (%s %d) with refs %d, heap index %d, %d entries, in a table or heap %v",
				k.canon, n.op, n.key, n.refs, n.heapIdx, len(n.entries), inTable[n])
		}
	}
}

// hotGroups returns the number of groups with waiters.
func hotGroups(m *Monitor) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, g := range m.cm.groups {
		if g.waiters > 0 {
			n++
		}
	}
	return n
}

// TestHotListSkipsColdGroups: a static predicate keeps its group after
// its only waiter leaves, but a group without waiters holds no waiter
// count, so the relay search never takes it as a candidate.
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
	checkRelayState(t, m)

	d := startWaiter(t, m, "t7 >= 1")
	if n := hotGroups(m); n != 1 {
		t.Errorf("hot groups = %d with one parked waiter, want 1", n)
	}
	checkRelayState(t, m)
	m.Do(func() { cells[7].Set(1) })
	waitTimeout(t, 5*time.Second, "parked waiter", func() { <-d })
	if n := hotGroups(m); n != 0 {
		t.Errorf("hot groups = %d after the claim, want 0", n)
	}
	if _, _, groups, _ := m.DebugCounts(); groups != cold {
		t.Errorf("groups = %d after the claim, want %d", groups, cold)
	}
	checkRelayState(t, m)
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
		checkRelayState(t, m)
		return order
	}
	if a, b := claimOrder(), claimOrder(); !slices.Equal(a, b) {
		t.Errorf("claim orders differ:\n%v\n%v", a, b)
	}
}

// TestRelayAfterWriteOutsideTag: a conjunction can turn true through a
// cell its tag does not read, while the tag's group value stands still.
// For each shape, a handle is armed whose tag atom already holds; one Do
// then writes only a cell outside the tag's form, and its exit must find
// the handle. The last shape has a locals-only atom, so it takes the
// substitution path instead of the template.
func TestRelayAfterWriteOutsideTag(t *testing.T) {
	for _, c := range []struct {
		pred  string
		x, y  int64 // initial values; the tag atom holds
		write func(x, y *IntCell)
	}{
		{"y == 1 && x >= k", 0, 1, func(x, _ *IntCell) { x.Set(5) }},
		{"x >= k && y >= 1", 5, 0, func(_, y *IntCell) { y.Set(1) }},
		{"x >= k && y != 1", 5, 1, func(_, y *IntCell) { y.Set(2) }},
		{"!stop && x >= k", 0, 0, func(x, _ *IntCell) { x.Add(5) }},
		{"x >= k && x + y >= 7", 5, 0, func(_, y *IntCell) { y.Add(2) }},
		{"k > 0 && y == 1 && x >= k", 0, 1, func(x, _ *IntCell) { x.Set(5) }},
	} {
		t.Run(c.pred, func(t *testing.T) {
			m := New()
			x := m.NewInt("x", c.x)
			y := m.NewInt("y", c.y)
			m.NewBool("stop", false)
			p := m.MustCompile(c.pred)
			if templated := p.tmpl != nil; templated == strings.HasPrefix(c.pred, "k > 0") {
				t.Fatalf("template = %v", templated)
			}
			w := p.Arm(BindInt("k", 5))
			select {
			case <-w.Ready():
				t.Fatal("handle notified before the write")
			default:
			}
			checkRelayState(t, m)
			m.Do(func() { c.write(x, y) })
			select {
			case <-w.Ready():
			default:
				t.Fatal("handle not notified by the exit after the write")
			}
			if err := w.Claim(); err != nil {
				t.Fatalf("Claim: %v", err)
			}
			m.Exit()
			checkRelayState(t, m)
		})
	}
}

// TestRelayResumesAtFoundGroup: a search that finds a waiter keeps its
// group and the groups it has not visited as candidates, so a chain of
// claims that write nothing still reaches every waiter one write made
// true. Two handles each on x >= 1 and y == 1 turn true in one Do.
func TestRelayResumesAtFoundGroup(t *testing.T) {
	m := New()
	x := m.NewInt("x", 0)
	y := m.NewInt("y", 0)
	var ws []*Wait
	for range 2 {
		ws = append(ws, m.MustCompile("x >= 1").Arm(), m.MustCompile("y == 1").Arm())
	}
	m.Do(func() {
		x.Set(1)
		y.Set(1)
	})
	for claimed := 0; claimed < len(ws); claimed++ {
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
			t.Fatalf("no handle ready after %d claims", claimed)
		}
		if err := ws[i].Claim(); err != nil {
			t.Fatalf("Claim: %v", err)
		}
		m.Exit()
		ws[i] = nil
		checkRelayState(t, m)
	}
}

// TestSearchHeapPopAllocFree: a threshold root that holds but has no
// signalable waiter (its handle took a free notification at arm) is
// popped and reinserted by every relay search. Each op writes x, the
// group's cell, so that its exit searches the group; the pop list and
// the search's dirty and candidate lists are reused, so the op
// allocates nothing.
func TestSearchHeapPopAllocFree(t *testing.T) {
	m := New()
	x := m.NewInt("x", 1)
	w := m.MustCompile("x >= 1").Arm()
	select {
	case <-w.Ready():
	default:
		t.Fatal("handle on a true predicate not notified at arm")
	}
	before := m.Stats().TagChecks
	if a := testing.AllocsPerRun(100, func() { m.Enter(); x.Set(1); m.Exit() }); a != 0 {
		t.Errorf("Enter/Exit over a popped heap root allocates %v, want 0", a)
	}
	if m.Stats().TagChecks == before {
		t.Error("no relay search examined the heap root")
	}
	w.Cancel()
	checkRelayState(t, m)
}

// TestEntryReuseAllocFree: reactivating a parked entry rebuilds none of
// its tag structures. 128 keys of a threshold predicate, and of the
// producer's disjunction with a boolean flag, are parked on the inactive
// list; one more resolve-and-retire cycle over them allocates nothing.
func TestEntryReuseAllocFree(t *testing.T) {
	const keys = 128
	for _, src := range []string{"x >= k", "x + k <= c || stop"} {
		t.Run(src, func(t *testing.T) {
			m := New()
			m.NewInt("x", 0)
			m.NewInt("c", 0)
			m.NewBool("stop", false)
			p := m.MustCompile(src)
			binds := make([][]Binding, keys)
			for i := range binds {
				binds[i] = []Binding{BindInt("k", int64(i+1))}
			}
			cycle := func() {
				for _, b := range binds {
					if err := m.vetPred(p, b); err != nil {
						t.Fatal(err)
					}
				}
			}
			cycle()
			if _, inactive, _, _ := m.DebugCounts(); inactive != keys {
				t.Fatalf("inactive = %d after one cycle, want %d", inactive, keys)
			}
			before := m.Stats().Reuses
			if a := testing.AllocsPerRun(10, cycle); a != 0 {
				t.Errorf("reusing a parked entry allocates %v times, want 0", a/keys)
			}
			if m.Stats().Reuses == before {
				t.Error("no cycle reused a parked entry")
			}
			checkRelayState(t, m)
		})
	}
}

// TestParkRoundTripAllocFree: a blocking wait that parks on a cached
// predicate allocates nothing. A partner parks on x == k || stop for odd
// k; each round sets x to the partner's key and awaits the next, even,
// key, which the partner writes before it parks on its next odd key. One
// round is two parks, each of which reuses a parked entry and a spare
// waiter: after a warm-up over the 16 keys it registers no entry and
// allocates nothing.
func TestParkRoundTripAllocFree(t *testing.T) {
	const keys = 16
	m := New()
	x := m.NewInt("x", 0)
	stop := m.NewBool("stop", false)
	p := m.MustCompile("x == k || stop")
	binds := make([][]Binding, keys+1)
	for k := range binds {
		binds[k] = []Binding{BindInt("k", int64(k))}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Enter()
		defer m.Exit()
		for k := 1; ; k = (k + 2) % keys {
			if err := p.Await(binds[k]...); err != nil {
				t.Error(err)
				return
			}
			if stop.Get() {
				return
			}
			x.Set(int64(k + 1))
		}
	}()
	defer func() {
		m.Do(func() { stop.Set(true) })
		waitTimeout(t, 10*time.Second, "partner", func() { <-done })
	}()
	waitParked(t, m, 1)
	k, rounds := 1, uint64(0)
	round := func() {
		m.Enter()
		x.Set(int64(k))
		if err := p.Await(binds[k+1]...); err != nil {
			t.Error(err)
		}
		m.Exit()
		k = (k + 2) % keys
		rounds++
	}
	for range keys / 2 {
		round()
	}
	before := m.Stats()
	rounds = 0
	if a := testing.AllocsPerRun(200, round); a != 0 {
		t.Errorf("a park round trip allocates %v times, want 0", a)
	}
	s := m.Stats()
	if reuses, regs := s.Reuses-before.Reuses, s.Registrations-before.Registrations; reuses != 2*rounds || regs != 0 {
		t.Errorf("%d round trips reused %d entries and registered %d, want %d and 0", rounds, reuses, regs, 2*rounds)
	}
	checkRelayState(t, m)
}

// TestGroupLivesWithCachedEntries: a shared-expression group lives as
// long as a cached entry names it, so reusing a parked entry leaves its
// compiled group in place, and the group leaves with the last such entry,
// so the groups stay bounded by the entry cache. Both registration paths
// are covered: k > 0 && x >= k has a locals-only atom, which rules out
// the template and takes the substitution path.
func TestGroupLivesWithCachedEntries(t *testing.T) {
	// group returns the group of a shared expression, or nil, and the
	// number of tag nodes it holds.
	group := func(m *Monitor, expr string) (*sharedGroup, int) {
		m.mu.Lock()
		defer m.mu.Unlock()
		g := m.cm.groups[expr]
		if g == nil {
			return nil, 0
		}
		return g, len(g.equiv) + g.minHeap.Len() + g.maxHeap.Len()
	}
	nodes := func(m *Monitor, expr string) int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return groupNodes(m, expr)
	}
	for _, src := range []string{"x >= k", "k > 0 && x >= k"} {
		t.Run(src, func(t *testing.T) {
			m := New(WithInactiveLimit(1))
			m.NewInt("x", 0)
			m.NewInt("y", 0)
			p := m.MustCompile(src)
			if templated := p.tmpl != nil; templated != (src == "x >= k") {
				t.Fatalf("template = %v", templated)
			}
			p.Arm(BindInt("k", 5)).Cancel()
			g, tags := group(m, "x")
			if g == nil || tags != 0 {
				t.Fatalf("after arm and cancel: group %p with %d tags, want a group with 0", g, tags)
			}
			if _, _, groups, _ := m.DebugCounts(); groups != 0 {
				t.Errorf("DebugCounts groups = %d with no tag in use, want 0", groups)
			}
			p.Arm(BindInt("k", 5)).Cancel()
			if s := m.Stats(); s.Reuses != 1 || s.Registrations != 1 {
				t.Errorf("registrations/reuses = %d/%d, want 1/1", s.Registrations, s.Reuses)
			}
			if again, _ := group(m, "x"); again != g {
				t.Error("reusing the parked entry replaced its group")
			}
			m.MustCompile(strings.ReplaceAll(src, "x", "y")).Arm(BindInt("k", 5)).Cancel()
			if g, _ := group(m, "x"); g != nil {
				t.Error("x group outlived its evicted entry")
			}
			if g, _ := group(m, "y"); g == nil {
				t.Error("y group dropped while its entry is parked")
			}
			if n := nodes(m, "y"); n != 1 {
				t.Errorf("y group has %d tag nodes with its entry parked, want 1", n)
			}
			checkRelayState(t, m)

			m0 := New(WithInactiveLimit(0))
			m0.NewInt("x", 0)
			m0.MustCompile(src).Arm(BindInt("k", 5)).Cancel()
			if g, _ := group(m0, "x"); g != nil {
				t.Error("group outlived its uncached entry under WithInactiveLimit(0)")
			}
			if n := nodes(m0, "x"); n != 0 {
				t.Errorf("x group has %d tag nodes under WithInactiveLimit(0), want 0", n)
			}
			checkRelayState(t, m0)
		})
	}
	t.Run("static", func(t *testing.T) {
		m := New(WithInactiveLimit(1))
		m.NewInt("x", 0)
		m.NewInt("y", 0)
		m.MustCompile("x >= 3").Arm().Cancel()
		g, tags := group(m, "x")
		for k := range int64(4) {
			m.MustCompile("y >= k").Arm(BindInt("k", k+1)).Cancel()
		}
		if again, againTags := group(m, "x"); g == nil || again != g || tags != 1 || againTags != 1 {
			t.Errorf("static group %p with %d tags became %p with %d, want it kept with 1",
				g, tags, again, againTags)
		}
		checkRelayState(t, m)
	})
}

// groupNodes returns the number of distinct tag nodes that cached entries
// name in the group of a shared expression. Called with the monitor
// locked.
func groupNodes(m *Monitor, expr string) int {
	seen := map[*tagNode]bool{}
	for _, e := range m.cm.entries {
		for _, n := range e.nodes {
			if n != nil && n.group.exprStr == expr {
				seen[n] = true
			}
		}
	}
	return len(seen)
}

// TestTagNodesLiveWithCachedEntries: a tag node lives exactly as long as a
// cached entry names it. Parking an entry keeps its nodes, so a reuse
// re-enters the same nodes and builds none: a threshold node leaves its
// heap while no active entry names it and comes back on the reuse, and an
// equivalence node stays in its group's table, shared by every cached
// entry with its tag. The eviction of the last entry naming a node drops
// the node, and a group with no node left goes with it. A parked
// equivalence node costs a search no tag check.
func TestTagNodesLiveWithCachedEntries(t *testing.T) {
	if size := unsafe.Sizeof(tagNode{}); size > 64 {
		t.Errorf("a tag node takes %d bytes, over the 64-byte size class", size)
	}
	// armed arms p and returns the handle with its entry.
	armed := func(m *Monitor, p *Predicate, binds ...Binding) (*Wait, *entry) {
		w := p.Arm(binds...)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		return w, w.e
	}
	// node returns the node of e that holds the tag of the given kind.
	node := func(m *Monitor, e *entry, kind tag.Kind) *tagNode {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, n := range e.nodes {
			if n != nil && n.kind == kind {
				return n
			}
		}
		t.Fatalf("entry %q has no %v node", e.canon, kind)
		return nil
	}
	inHeap := func(m *Monitor, n *tagNode) bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		h := n.group.heapFor(n.op)
		return n.heapIdx >= 0 && h.items[n.heapIdx] == n
	}

	t.Run("threshold", func(t *testing.T) {
		m := New(WithInactiveLimit(2))
		m.NewInt("x", 0)
		p := m.MustCompile("x >= k")
		w, e := armed(m, p, BindInt("k", 5))
		n := node(m, e, tag.Threshold)
		if !inHeap(m, n) {
			t.Fatal("an armed entry's threshold node is not in its heap")
		}
		w.Cancel()
		if again := node(m, e, tag.Threshold); again != n {
			t.Error("parking the entry replaced its threshold node")
		}
		if inHeap(m, n) {
			t.Error("a parked entry's threshold node stayed in its heap")
		}
		checkRelayState(t, m)
		w, again := armed(m, p, BindInt("k", 5))
		if again != e {
			t.Fatal("re-arming built a new entry")
		}
		if node(m, e, tag.Threshold) != n || !inHeap(m, n) {
			t.Error("the reused entry is not back in its own node in the heap")
		}
		if s := m.Stats(); s.Reuses != 1 || s.Registrations != 1 {
			t.Errorf("registrations/reuses = %d/%d, want 1/1", s.Registrations, s.Reuses)
		}
		checkRelayState(t, m)
		w.Cancel()
		checkRelayState(t, m)
	})

	t.Run("equivalence", func(t *testing.T) {
		m := New(WithInactiveLimit(2))
		m.NewInt("x", 0)
		m.NewInt("c", 0)
		m.NewBool("stop", false)
		m.NewInt("y", 0)
		p := m.MustCompile("x + k <= c || stop")
		w, e5 := armed(m, p, BindInt("k", 5))
		stop := node(m, e5, tag.Equivalence)
		g := stop.group
		inTable := func() bool {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.cm.groups["stop"] == g && g.equiv[1] == stop
		}
		w.Cancel()
		if !inTable() || node(m, e5, tag.Equivalence) != stop {
			t.Error("parking the entry took its stop == 1 node out of the table")
		}
		w, _ = armed(m, p, BindInt("k", 5))
		w.Cancel()
		if !inTable() || node(m, e5, tag.Equivalence) != stop {
			t.Error("a reuse and a second park replaced the stop == 1 node")
		}
		w, e6 := armed(m, p, BindInt("k", 6))
		w.Cancel()
		if e6 == e5 || node(m, e6, tag.Equivalence) != stop || !inTable() {
			t.Error("a second parked entry does not share the stop == 1 node")
		}
		m.mu.Lock()
		if stop.refs != 2 {
			t.Errorf("stop == 1 node refs = %d with two cached entries, want 2", stop.refs)
		}
		m.mu.Unlock()
		checkRelayState(t, m)

		// Two entries on another group evict both: the first eviction
		// leaves the node to e6, the second drops it with its group.
		q := m.MustCompile("y >= k")
		w, _ = armed(m, q, BindInt("k", 1))
		w.Cancel()
		if !inTable() {
			t.Error("the stop == 1 node left with the first of its two entries")
		}
		w, _ = armed(m, q, BindInt("k", 2))
		w.Cancel()
		m.mu.Lock()
		if m.cm.groups["stop"] != nil || groupNodes(m, "stop") != 0 || stop.refs != 0 {
			t.Errorf("evicting the last entry naming the stop == 1 node left group %p, %d nodes, refs %d",
				m.cm.groups["stop"], groupNodes(m, "stop"), stop.refs)
		}
		m.mu.Unlock()
		if s := m.Stats(); s.Evictions != 2 {
			t.Errorf("evictions = %d, want 2", s.Evictions)
		}
		checkRelayState(t, m)
	})

	t.Run("evicted equivalence node", func(t *testing.T) {
		m := New(WithInactiveLimit(2))
		m.NewInt("y", 0)
		p := m.MustCompile("y == k")
		for k := range int64(3) {
			w, _ := armed(m, p, BindInt("k", k+1))
			w.Cancel()
		}
		m.mu.Lock()
		g := m.cm.groups["y"]
		if g == nil || g.equiv[1] != nil || g.equiv[2] == nil || g.equiv[3] == nil || groupNodes(m, "y") != 2 {
			t.Errorf("after evicting the y == 1 entry: group %p, table %v, %d nodes; want the group with the y == 2 and y == 3 nodes only",
				g, g.equiv, groupNodes(m, "y"))
		}
		m.mu.Unlock()
		checkRelayState(t, m)
	})

	t.Run("one node per tag of an entry", func(t *testing.T) {
		m := New(WithInactiveLimit(2))
		for _, name := range []string{"x", "y", "z"} {
			m.NewInt(name, 0)
		}
		p := m.MustCompile("x >= k && y > 0 || x >= k && z > 0")
		w, e := armed(m, p, BindInt("k", 3))
		m.mu.Lock()
		if len(e.nodes) != 2 || e.nodes[0] == nil || e.nodes[0] != e.nodes[1] || e.nodes[0].refs != 2 {
			t.Errorf("two conjunctions tagged x >= 3 hold nodes %v, want one node with refs 2", e.nodes)
		}
		m.mu.Unlock()
		checkRelayState(t, m)
		w.Cancel()
		checkRelayState(t, m)
	})

	t.Run("parked equivalence node", func(t *testing.T) {
		m := New(WithInactiveLimit(2))
		y := m.NewInt("y", 0)
		p := m.MustCompile("y == k")
		w, _ := armed(m, p, BindInt("k", 1))
		w.Cancel()
		w, _ = armed(m, p, BindInt("k", 2))
		defer w.Cancel()
		before := m.Stats().TagChecks
		m.Do(func() { y.Set(1) })
		if s := m.Stats(); s.TagChecks != before {
			t.Errorf("writing y = 1 beside a parked y == 1 entry counted %d tag checks, want 0", s.TagChecks-before)
		}
		select {
		case <-w.Ready():
			t.Fatal("the y == 2 handle fired at y = 1")
		default:
		}
		m.Do(func() { y.Set(2) })
		if s := m.Stats(); s.TagChecks != before+1 {
			t.Errorf("writing y = 2 counted %d tag checks, want 1", s.TagChecks-before)
		}
		waitTimeout(t, 5*time.Second, "y == 2 handle", func() { <-w.Ready() })
		checkRelayState(t, m)
	})
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
