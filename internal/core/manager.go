package core

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/tag"
)

// condManager owns the predicate table, the tag structures, and the
// inactive list of one monitor (§5.2, Fig. 7). One map caches every
// entry, active or parked on the inactive list. A cached entry keeps its
// tag nodes and their groups, so a reuse only re-enters the nodes it
// names. Its relay search is write-driven: a cell write puts the cell on
// dirty, and findTrue visits only the groups with waiters that read a
// written cell, plus the candidates an earlier search left unfinished.
// Every method runs under the monitor lock.
type condManager struct {
	m *Monitor

	entries map[string]*entry // cached entries by identity, active and parked
	lru     entry             // inactive ring sentinel: next is the newest parked entry, prev the oldest
	parked  int               // entries on the inactive ring
	id      []byte            // template identity scratch, looked up without a string

	// groups indexes the tag structures by canonical shared expression. A
	// group, like each of its tag nodes, stays while a cached entry,
	// active or parked, names it: a parked entry keeps its nodes and its
	// groups' compiled evaluators alive, and the eviction or discard of
	// the last entry naming a node or group releases it.
	groups map[string]*sharedGroup
	dirty  []*cellWatch   // cells written since the last fold
	cand   []*sharedGroup // groups the relay search still has to visit, in order
	none   []*entry       // entries needing exhaustive search
	backup []*tagNode     // searchHeap's popped roots, reused (searches never nest)
	pick   *Wait          // the waiter the search in progress would signal; nil between searches
	spare  []*Wait        // finished blocking waiters for reuse, at most m.waiting

	pending int // signals issued and not yet consumed by a woken or claiming waiter

	// relayOrigin is the seq of the waiter whose consumed notification the
	// next relay signal continues — the wake-chain edge the flight
	// recorder stamps on KSignal events. Maintained only while the
	// monitor records (m.rec != nil): consumeSignal sets it, relay sites
	// with no preceding consume (Exit, the pre-park relay) zero it.
	relayOrigin uint64
}

func newCondManager(m *Monitor) *condManager {
	cm := &condManager{
		m:       m,
		entries: map[string]*entry{},
		groups:  map[string]*sharedGroup{},
	}
	cm.lru.prev, cm.lru.next = &cm.lru, &cm.lru
	return cm
}

// getEntry finds or creates the entry with identity id (a globalized
// predicate's canonical string, or a template identity rendered into
// cm.id) in one lookup, reactivating a parked entry when the same
// identity was used before (predicate reuse, §5.2). A parked entry still
// holds its tag nodes and their groups, whose compiled evaluators it kept
// alive, and the lookup does not copy id, so a reuse compiles and
// allocates nothing. On a miss, build constructs the entry under id as a
// string.
func getEntry[ID string | []byte](cm *condManager, id ID, build func(canon string) (*entry, error)) (*entry, error) {
	if e, ok := cm.entries[string(id)]; ok {
		if !e.active {
			cm.unpark(e)
			cm.m.stats.Reuses++
			cm.activate(e)
		}
		return e, nil
	}
	e, err := build(string(id))
	if err != nil {
		return nil, err
	}
	cm.entries[e.canon] = e
	cm.m.stats.Registrations++
	cm.activate(e)
	return e, nil
}

// activate enters a cached entry into its tag nodes, once into each
// distinct node, and pushes a threshold node that had no active entry
// back into its heap; an entry with a conjunction that has no node (a
// None tag, or tagging disabled) joins the None list. A fresh entry,
// whose tag analysis is not yet consumed, first takes its nodes
// (retain); a parked one still holds them. A recorded KTag is the span
// of the update.
func (cm *condManager) activate(e *entry) {
	start := cm.m.spanStart()
	if e.conjTags != nil {
		cm.retain(e)
	}
	e.active = true
	for i, n := range e.nodes {
		if n == nil {
			if e.noneIdx < 0 {
				e.noneIdx = len(cm.none)
				cm.none = append(cm.none, e)
			}
			continue
		}
		if slices.Contains(e.nodes[:i], n) {
			continue
		}
		n.addEntry(e)
		if n.kind == tag.Threshold && n.heapIdx < 0 {
			n.group.heapFor(n.op).push(n)
		}
	}
	if r := cm.m.rec; r != nil {
		r.Record(obs.KTag, 0, start)
	}
}

// retain gives a fresh entry its tag nodes, consuming its tag analysis:
// for each tagged conjunction it takes a reference on the conjunction's
// group, creating the group, with its compiled evaluator, on first use,
// and on the conjunction's node (nodeFor). It links each cell a tagged
// conjunction reads to the conjunction's group: the group's own cells
// when it is created, the cells read outside the tag for each entry. A
// tag whose shared expression does not compile (an undeclared variable in
// a hand-built DNF) gets no node, as a None tag does, so the entry is
// searched exhaustively for as long as it is cached.
func (cm *condManager) retain(e *entry) {
	e.nodes = make([]*tagNode, len(e.conjTags))
	for i := range e.conjTags {
		tg := &e.conjTags[i]
		if !cm.m.cfg.tagging || tg.Kind == tag.None {
			continue
		}
		g, ok := cm.groups[tg.Expr]
		if !ok {
			eval, err := cm.m.compileForm(tg.Form)
			if err != nil {
				continue
			}
			g = &sharedGroup{
				exprStr: tg.Expr,
				eval:    eval,
				equiv:   map[int64]*tagNode{},
				minHeap: tagHeap{min: true},
				maxHeap: tagHeap{min: false},
			}
			for _, name := range tg.Form.Vars() {
				c := cm.m.vars[name].watch()
				c.link(g)
				g.cells = append(g.cells, c)
			}
			cm.groups[tg.Expr] = g
		}
		g.refs++
		for _, c := range e.outsideOf(i) {
			c.link(g)
		}
		n := cm.nodeFor(g, tg, e.nodes[:i])
		n.refs++
		e.nodes[i] = n
	}
	e.conjTags = nil
}

// release drops an entry that leaves the cache, evicted or discarded,
// with its node and group references and its reader links. A node no
// cached entry names any more has no active entry, so it is in no heap;
// an equivalence node then leaves its group's table. A group no cached
// entry names any more is dropped with its compiled evaluator, its own
// cells' links and its place among the candidates.
func (cm *condManager) release(e *entry) {
	delete(cm.entries, e.canon)
	for i, n := range e.nodes {
		if n == nil {
			continue
		}
		g := n.group
		if n.refs--; n.refs == 0 && n.kind == tag.Equivalence {
			delete(g.equiv, n.key)
		}
		for _, c := range e.outsideOf(i) {
			c.unlink(g)
		}
		g.refs--
		if g.refs != 0 {
			continue
		}
		for _, c := range g.cells {
			c.unlink(g)
		}
		if g.cand {
			j := slices.Index(cm.cand, g)
			cm.cand = slices.Delete(cm.cand, j, j+1)
		}
		delete(cm.groups, g.exprStr)
	}
}

// nodeFor finds or creates the tag node for tg in its group g, for a
// fresh entry whose earlier conjunctions took the nodes taken. An
// equivalence node is shared through the group's table, which holds every
// node a cached entry names. A threshold node is shared only with a node
// resident in its heap, one with active entries, or taken by the same
// entry: a parked entry's node is not found, so two nodes with the same
// key and operator can coexist, and the heap search then visits both.
func (cm *condManager) nodeFor(g *sharedGroup, tg *tag.Tag, taken []*tagNode) *tagNode {
	if tg.Kind == tag.Equivalence {
		n, ok := g.equiv[tg.Key]
		if !ok {
			n = &tagNode{group: g, kind: tg.Kind, key: tg.Key, op: tg.Op, heapIdx: -1}
			g.equiv[tg.Key] = n
		}
		return n
	}
	for _, nodes := range [2][]*tagNode{g.heapFor(tg.Op).items, taken} {
		for _, n := range nodes {
			if n != nil && n.group == g && n.key == tg.Key && n.op == tg.Op {
				return n
			}
		}
	}
	return &tagNode{group: g, kind: tg.Kind, key: tg.Key, op: tg.Op, heapIdx: -1}
}

// heapFor selects the heap for a threshold operator: {>, ≥} tags live in
// the min-heap, {<, ≤} tags in the max-heap.
func (g *sharedGroup) heapFor(op expr.Op) *tagHeap {
	if op == expr.OpGt || op == expr.OpGe {
		return &g.minHeap
	}
	return &g.maxHeap
}

// deactivate takes an entry with no remaining waiters out of its tag
// nodes; a threshold node left with no active entry leaves its heap.
// Static (shared) predicates stay active forever; closure entries never
// get here (retireIfIdle); everything else is parked on the inactive list
// for reuse, still cached and holding its nodes and groups, so their
// compiled evaluators stay alive, or discarded under WithInactiveLimit(0).
// Past the limit the oldest parked entries are evicted, which releases
// their nodes and groups. A recorded KTag is the span of the update.
func (cm *condManager) deactivate(e *entry) {
	if e.static || !e.active {
		return
	}
	start := cm.m.spanStart()
	e.active = false
	for _, n := range e.nodes {
		if n == nil {
			continue
		}
		n.removeEntry(e)
		if len(n.entries) == 0 && n.heapIdx >= 0 {
			n.group.heapFor(n.op).remove(n)
		}
	}
	if e.noneIdx >= 0 {
		cm.removeNone(e)
	}
	if cm.m.cfg.inactiveLimit == 0 {
		cm.release(e)
	} else {
		cm.park(e)
		for cm.parked > cm.m.cfg.inactiveLimit {
			oldest := cm.lru.prev
			cm.unpark(oldest)
			cm.release(oldest)
			cm.m.stats.Evictions++
		}
	}
	if r := cm.m.rec; r != nil {
		r.Record(obs.KTag, 0, start)
	}
}

// park puts an entry on the inactive list, at the front of its ring.
func (cm *condManager) park(e *entry) {
	e.prev, e.next = &cm.lru, cm.lru.next
	e.prev.next = e
	e.next.prev = e
	cm.parked++
}

// unpark takes a parked entry off the inactive list.
func (cm *condManager) unpark(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	cm.parked--
}

func (cm *condManager) removeNone(e *entry) {
	last := len(cm.none) - 1
	moved := cm.none[last]
	cm.none[e.noneIdx] = moved
	moved.noneIdx = e.noneIdx
	cm.none[last] = nil
	cm.none = cm.none[:last]
	e.noneIdx = -1
}

// relaySignal implements the relay signaling rule (§4.2): if no signal is
// already pending, find one waiter whose globalized predicate is true and
// signal it on its ready channel, where a token unparks a blocked Await
// and a close fires an armed handle's select case. A pending signal means
// an active waiter already exists (Definition 3 counts signaled threads
// as active), so relay invariance holds without a second search — and the
// signaled waiter itself relays again before it re-waits (Fig. 6), or on
// the Exit/re-arm that ends its Claim, keeping the chain alive. A search
// that runs ends in a recorded KRelay, the span of the search and the
// signal.
func (cm *condManager) relaySignal() {
	cm.m.stats.RelayCalls++
	if cm.pending > 0 {
		return
	}
	start := cm.m.spanStart()
	w := cm.findTrue()
	byPolicy := false
	if w != nil {
		w.viaRelay = true
		cm.pending++
		cm.m.stats.Signals++
		byPolicy = cm.m.pol != nil || w.e.policy != nil
		if byPolicy {
			cm.m.stats.PolicyWakes++
		}
		cm.notify(w)
	}
	// The signal's own events follow the span, so it times the protocol
	// and not the recorder; w cannot act on the signal before the monitor
	// is released, so they still precede its claim.
	if r := cm.m.rec; r != nil {
		r.Record(obs.KRelay, 0, start)
		if w != nil {
			r.Record(obs.KSignal, w.seq, int64(cm.relayOrigin))
			if byPolicy {
				r.Record(obs.KPolicyWake, w.seq, w.rank)
			}
			cm.relayOrigin = 0 // baton handed to w; reset until its consume
		}
	}
}

// notify delivers a notification to one waiter, keeping the entry's
// signalable accounting exact.
func (cm *condManager) notify(w *Wait) {
	w.notify()
	w.e.unnotified--
}

// register attaches a waiter to its entry and updates the per-group
// waiter totals and the monitor-wide Waiting count. Every caller has just
// found the entry's predicate false in this lock hold (or notifies the
// waiter at once), which is what lets findTrue skip the waiter's groups
// until a cell they read is written. First registration
// stamps the waiter's arrival seq (the FIFO/LIFO sort key — the waiters
// slice itself is swap-removed and order-free) and its wait-start time;
// both survive futile-wake re-registration so a policy cannot demote a
// waiter for having been woken uselessly.
func (cm *condManager) register(w *Wait) {
	if w.seq == 0 {
		cm.m.seq++
		w.seq = cm.m.seq
	}
	if w.since == 0 {
		w.since = obs.Now()
	}
	if r := cm.m.rec; r != nil {
		r.Record(obs.KArm, w.seq, w.rank)
	}
	e := w.e
	w.idx = len(e.waiters)
	e.waiters = append(e.waiters, w)
	e.unnotified++
	for _, n := range e.nodes {
		if n != nil {
			n.group.waiters++
		}
	}
	cm.m.waiting++
}

// unregister detaches a waiter from its entry. An entry's nodes do not
// change while it is cached, so the per-group waiter totals are exact. A
// group that loses its last waiter may stay a search candidate; the next
// search drops it. A spare waiter beyond the new Waiting count is
// dropped.
func (cm *condManager) unregister(w *Wait) {
	e := w.e
	last := len(e.waiters) - 1
	moved := e.waiters[last]
	e.waiters[w.idx] = moved
	moved.idx = w.idx
	e.waiters[last] = nil
	e.waiters = e.waiters[:last]
	w.idx = -1
	if !w.notified {
		e.unnotified--
	}
	for _, n := range e.nodes {
		if n != nil {
			n.group.waiters--
		}
	}
	cm.m.waiting--
	if last := len(cm.spare) - 1; last >= cm.m.waiting {
		cm.spare[last] = nil
		cm.spare = cm.spare[:last]
	}
}

// takeWait returns the waiter for a blocking wait: a spare one when the
// monitor has one, else a new one, whose ready channel holds the one
// token a notification sends.
func (cm *condManager) takeWait() *Wait {
	if last := len(cm.spare) - 1; last >= 0 {
		w := cm.spare[last]
		cm.spare[last] = nil
		cm.spare = cm.spare[:last]
		return w
	}
	return &Wait{host: cm.m, ready: make(chan struct{}, 1), blocking: true, idx: -1}
}

// putWait keeps a finished blocking waiter, unregistered and with no
// give-up trigger, for a later wait while fewer spares than registered
// waiters are kept (unregister trims the list), so the list empties when
// the monitor idles.
func (cm *condManager) putWait(w *Wait) {
	if len(cm.spare) < cm.m.waiting {
		*w = Wait{host: w.host, ready: w.ready, blocking: true, idx: -1}
		cm.spare = append(cm.spare, w)
	}
}

// findTrue returns the waiter the relay signals: an unnotified waiter of a
// signalable entry whose predicate holds, or nil. Without tagging it scans
// the None list, which then holds every entry. With tagging the search is
// write-driven. It first folds the written cells' reader groups into the
// candidate list (fold), and then searches the candidates in order: the
// equivalence hash table first, then the threshold heaps (§4.3.2). A
// candidate that yields no signalable true entry leaves the list. The None
// list comes last. The order is a function of the operation sequence
// alone, so relay picks replay.
//
// Without a monitor policy the first signalable true entry ends the
// search, and its own policy, if any, picks its waiter; its group stays at
// the front of the list with the candidates not yet visited, so the next
// search resumes there. Under a monitor policy the search offers every
// signalable true entry it reaches and keeps the policy-best waiter
// (offerTrue); each candidate that yielded a true entry stays on the list.
//
// No wake-up is lost: with no signal pending, an active entry with an
// unnotified waiter that is true is on the None list, or one of its true
// tagged conjunctions has its group in cand or reads a dirty cell,
// which lists that group as a reader. This holds because an entry's
// truth changes only through a cell write; because a waiter is left
// unnotified (register, armEntry, rearm) only in a lock hold that found
// its predicate false; and because a group leaves cand only after a
// search found no signalable true entry through it. So the search reaches
// every signalable true entry, and a policy compares them all.
//
// A write costs the fold a step over each group reading the cell, with
// waiters or not, so a cell read by many idle groups (outside their tags,
// say) makes every search that follows a write to it pay for them.
func (cm *condManager) findTrue() *Wait {
	if cm.m.cfg.tagging {
		cm.fold()
		kept := 0
		for i, g := range cm.cand {
			cm.cand[i] = nil
			if !cm.searchGroup(g) {
				g.cand = false
				continue
			}
			cm.cand[kept] = g
			kept++
			if cm.done() {
				n := copy(cm.cand[kept:], cm.cand[i+1:])
				clear(cm.cand[kept+n:])
				kept += n
				break
			}
		}
		cm.cand = cm.cand[:kept]
	}
	if !cm.done() {
		cm.offerTrue(cm.none)
	}
	w := cm.pick
	cm.pick = nil
	return w
}

// fold appends to cm.cand the groups with waiters that read a cell
// written since the last fold, each group once, and empties cm.dirty.
func (cm *condManager) fold() {
	for i, c := range cm.dirty {
		c.dirty = false
		for _, r := range c.readers {
			if g := r.g; g.waiters > 0 && !g.cand {
				g.cand = true
				cm.cand = append(cm.cand, g)
			}
		}
		cm.dirty[i] = nil
	}
	cm.dirty = cm.dirty[:0]
}

// done reports whether the search can stop: it has a pick, and no monitor
// policy has to compare the pick with entries not yet reached.
func (cm *condManager) done() bool { return cm.pick != nil && cm.m.pol == nil }

// searchGroup offers the signalable true entries reached through the tags
// of g that hold, the equivalence probe and then both threshold heaps, and
// reports whether it found one. A probed equivalence node that only
// parked entries name is passed over without a tag check.
func (cm *condManager) searchGroup(g *sharedGroup) bool {
	v := g.eval()
	found := false
	if node, ok := g.equiv[v]; ok && len(node.entries) > 0 {
		cm.m.stats.TagChecks++
		found = cm.offerTrue(node.entries)
	}
	if !cm.done() {
		found = cm.searchHeap(&g.minHeap, v) || found
	}
	if !cm.done() {
		found = cm.searchHeap(&g.maxHeap, v) || found
	}
	return found
}

// offerTrue evaluates the signalable entries until the search is done,
// offers the waiter of each that holds as the pick, and reports whether
// one held. Without a monitor policy the first waiter offered is the
// pick; with one, a waiter replaces the pick when the policy prefers it.
func (cm *condManager) offerTrue(entries []*entry) bool {
	found := false
	for _, e := range entries {
		if !e.signalable() {
			continue
		}
		cm.m.stats.PredicateEvals++
		if !e.evalFn() {
			continue
		}
		found = true
		w := e.pickUnnotified(cm.m.pol)
		if cm.pick == nil || cm.m.pol.Better(cand(w), cand(cm.pick)) {
			cm.pick = w
		}
		if cm.done() {
			break
		}
	}
	return found
}

// searchHeap is the threshold search of Fig. 4: examine the root tag; if it
// is false, every descendant is false and the search stops; if it holds,
// offer its true entries and, unless the search is done, pop it to a
// backup list and look at the new root. Popped tags are reinserted before
// returning so the heap stays complete. It reports whether a root yielded
// a true entry.
func (cm *condManager) searchHeap(h *tagHeap, v int64) bool {
	if h.Len() == 0 {
		return false
	}
	cm.backup = cm.backup[:0]
	found := false
	for h.Len() > 0 {
		root := h.root()
		cm.m.stats.TagChecks++
		if !root.holds(v) {
			break
		}
		found = cm.offerTrue(root.entries) || found
		if cm.done() {
			break
		}
		cm.backup = append(cm.backup, h.popRoot())
	}
	for _, b := range cm.backup {
		h.push(b)
	}
	clear(cm.backup)
	return found
}
