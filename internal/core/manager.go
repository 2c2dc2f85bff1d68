package core

import (
	"container/list"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/tag"
)

// condManager owns the predicate table, the tag structures, and the
// inactive list of one monitor (§5.2, Fig. 7). Every method runs under the
// monitor lock.
type condManager struct {
	m *Monitor

	table    map[string]*entry // active entries by canonical string
	inactive map[string]*entry // parked entries by canonical string
	lru      *list.List        // inactive entries, most recently parked at the front

	groups map[string]*sharedGroup // tag structures by canonical shared expression
	none   []*entry                // entries needing exhaustive search

	pending int // signals issued and not yet consumed by a woken or claiming waiter

	// relayOrigin is the seq of the waiter whose consumed notification the
	// next relay signal continues — the wake-chain edge the flight
	// recorder stamps on KSignal events. Maintained only while the
	// monitor records (m.rec != nil): consumeSignal sets it, relay sites
	// with no preceding consume (Exit, the pre-park relay) zero it.
	relayOrigin uint64
}

func newCondManager(m *Monitor) *condManager {
	return &condManager{
		m:        m,
		table:    map[string]*entry{},
		inactive: map[string]*entry{},
		lru:      list.New(),
		groups:   map[string]*sharedGroup{},
	}
}

// getEntry finds or creates the entry for a globalized predicate,
// reactivating a parked entry when the same canonical predicate was used
// before (predicate reuse, §5.2). build constructs the entry on a miss.
func (cm *condManager) getEntry(canon string, build func() (*entry, error)) (*entry, error) {
	if e, ok := cm.table[canon]; ok {
		return e, nil
	}
	if e, ok := cm.inactive[canon]; ok {
		delete(cm.inactive, canon)
		cm.lru.Remove(e.lruElem)
		e.lruElem = nil
		cm.m.stats.Reuses++
		cm.activate(e)
		return e, nil
	}
	e, err := build()
	if err != nil {
		return nil, err
	}
	cm.m.stats.Registrations++
	cm.activate(e)
	return e, nil
}

// activate registers the entry in the predicate table and in the tag
// structures (or the None list when tagging is disabled). A recorded
// KTag is the span of the update.
func (cm *condManager) activate(e *entry) {
	start := cm.m.spanStart()
	cm.table[e.canon] = e
	e.active = true
	seen := map[*tagNode]bool{}
	inNone := false
	for _, tg := range e.conjTags {
		if !cm.m.cfg.tagging || tg.Kind == tag.None {
			if !inNone {
				e.noneIdx = len(cm.none)
				cm.none = append(cm.none, e)
				inNone = true
			}
			continue
		}
		node := cm.nodeFor(tg)
		if node == nil {
			// Shared-expression compilation failed (undeclared variable
			// in a hand-built DNF); fall back to exhaustive search.
			if !inNone {
				e.noneIdx = len(cm.none)
				cm.none = append(cm.none, e)
				inNone = true
			}
			continue
		}
		if seen[node] {
			continue
		}
		seen[node] = true
		node.addEntry(e)
		e.nodes = append(e.nodes, node)
	}
	if r := cm.m.rec; r != nil {
		r.Record(obs.KTag, 0, start)
	}
}

// nodeFor finds or creates the tag node for tg in its shared-expression
// group, creating the group (with its compiled evaluator) on first use.
func (cm *condManager) nodeFor(tg tag.Tag) *tagNode {
	g, ok := cm.groups[tg.Expr]
	if !ok {
		eval, err := cm.m.compileForm(tg.Form)
		if err != nil {
			return nil
		}
		g = &sharedGroup{
			exprStr: tg.Expr,
			eval:    eval,
			equiv:   map[int64]*tagNode{},
			minHeap: tagHeap{min: true},
			maxHeap: tagHeap{min: false},
		}
		cm.groups[tg.Expr] = g
	}
	if tg.Kind == tag.Equivalence {
		if n, ok := g.equiv[tg.Key]; ok {
			return n
		}
		n := &tagNode{group: g, kind: tag.Equivalence, key: tg.Key, op: tg.Op, heapIdx: -1}
		g.equiv[tg.Key] = n
		return n
	}
	h := g.heapFor(tg.Op)
	for _, n := range h.items {
		if n.key == tg.Key && n.op == tg.Op {
			return n
		}
	}
	n := &tagNode{group: g, kind: tag.Threshold, key: tg.Key, op: tg.Op}
	h.push(n)
	return n
}

// heapFor selects the heap for a threshold operator: {>, ≥} tags live in
// the min-heap, {<, ≤} tags in the max-heap.
func (g *sharedGroup) heapFor(op expr.Op) *tagHeap {
	if op == expr.OpGt || op == expr.OpGe {
		return &g.minHeap
	}
	return &g.maxHeap
}

// deactivate unregisters an entry with no remaining waiters. Static
// (shared) predicates stay active forever; closure entries are discarded;
// everything else is parked on the inactive list for reuse, evicting the
// oldest entries past the configured limit. A recorded KTag is the span
// of the update.
func (cm *condManager) deactivate(e *entry) {
	if e.static || !e.active {
		return
	}
	start := cm.m.spanStart()
	delete(cm.table, e.canon)
	e.active = false
	for _, n := range e.nodes {
		n.removeEntry(e)
		if len(n.entries) == 0 {
			g := n.group
			if n.kind == tag.Equivalence {
				delete(g.equiv, n.key)
			} else if n.heapIdx >= 0 {
				g.heapFor(n.op).remove(n)
			}
			if g.empty() {
				delete(cm.groups, g.exprStr)
			}
		}
	}
	e.nodes = nil
	if e.noneIdx >= 0 {
		cm.removeNone(e)
	}
	if !e.funcOnly && cm.m.cfg.inactiveLimit > 0 {
		e.lruElem = cm.lru.PushFront(e)
		cm.inactive[e.canon] = e
		for cm.lru.Len() > cm.m.cfg.inactiveLimit {
			oldest := cm.lru.Remove(cm.lru.Back()).(*entry)
			delete(cm.inactive, oldest.canon)
			oldest.lruElem = nil
			cm.m.stats.Evictions++
		}
	}
	if r := cm.m.rec; r != nil {
		r.Record(obs.KTag, 0, start)
	}
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
// signal it — by closing that waiter's ready channel, which unparks a
// blocked Await or fires an armed handle's select case. A pending signal
// means an active waiter already exists (Definition 3 counts signaled
// threads as active), so relay invariance holds without a second search —
// and the signaled waiter itself relays again before it re-waits (Fig. 6),
// or on the Exit/re-arm that ends its Claim, keeping the chain alive. A
// search that runs ends in a recorded KRelay, the span of the search and
// the signal.
func (cm *condManager) relaySignal() {
	cm.m.stats.RelayCalls++
	if cm.pending > 0 {
		return
	}
	start := cm.m.spanStart()
	var w *Wait
	if pol := cm.m.pol; pol != nil {
		w = cm.policyPick(pol)
	} else if e := cm.findTrue(); e != nil {
		// Per-predicate policies still apply without a monitor policy:
		// the tag-pruned search picks the entry, the entry's own policy
		// picks the waiter within it.
		w = e.pickUnnotified(e.policy)
	}
	policyPicked := false
	if w != nil {
		w.viaRelay = true
		cm.pending++
		cm.m.stats.Signals++
		policyPicked = cm.m.pol != nil || w.e.policy != nil
		if policyPicked {
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
			if policyPicked {
				r.Record(obs.KPolicyWake, w.seq, w.rank)
			}
			cm.relayOrigin = 0 // baton handed to w; reset until its consume
		}
	}
}

// policyPick is the exhaustive relay scan used when a monitor-wide wake
// policy is configured. Tag pruning is built to find *a* true waiter
// early, but a policy must compare *all* of them, so the scan visits
// every active entry — the predicate table plus the closure entries of
// the None list (closure entries are never in the table) — evaluates
// each signalable one, and keeps the policy-best eligible waiter. A
// per-entry override governs the pick within its entry; the monitor
// policy arbitrates across entries.
func (cm *condManager) policyPick(pol policy.Policy) *Wait {
	var best *Wait
	consider := func(e *entry) {
		if !e.signalable() {
			return
		}
		cm.m.stats.PredicateEvals++
		if !e.evalFn() {
			return
		}
		epol := e.policy
		if epol == nil {
			epol = pol
		}
		w := e.pickUnnotified(epol)
		if w == nil {
			return
		}
		if best == nil || pol.Better(cand(w), cand(best)) {
			best = w
		}
	}
	for _, e := range cm.table {
		consider(e)
	}
	for _, e := range cm.none {
		if e.funcOnly {
			consider(e)
		}
	}
	return best
}

// notify delivers a notification to one waiter, keeping the entry's
// signalable accounting exact.
func (cm *condManager) notify(w *Wait) {
	w.notify()
	w.e.unnotified--
}

// register attaches a waiter to its entry and updates the per-group
// waiter totals and the monitor-wide Waiting count. First registration
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
		n.group.waiters++
	}
	cm.m.waiting++
}

// unregister detaches a waiter from its entry. An entry's node set is
// stable while it has waiters (deactivation requires an empty waiter
// list), so the group bookkeeping is exact.
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
		n.group.waiters--
	}
	cm.m.waiting--
}

// findTrue locates a signalable entry whose predicate currently holds.
// With tagging, equivalence hash tables are probed first, then the
// threshold heaps, and only then the None list (§4.3.2); without tagging
// every entry in the None list (which then holds all of them) is scanned.
func (cm *condManager) findTrue() *entry {
	if cm.m.cfg.tagging {
		for _, g := range cm.groups {
			// Groups whose entries have no signalable waiters (e.g. the
			// permanently registered static predicates of an idle
			// problem) are skipped without evaluating the expression.
			if g.waiters == 0 {
				continue
			}
			v := g.eval()
			if node, ok := g.equiv[v]; ok {
				cm.m.stats.TagChecks++
				if e := cm.firstTrue(node.entries); e != nil {
					return e
				}
			}
			if e := cm.searchHeap(&g.minHeap, v); e != nil {
				return e
			}
			if e := cm.searchHeap(&g.maxHeap, v); e != nil {
				return e
			}
		}
	}
	return cm.firstTrue(cm.none)
}

// firstTrue returns the first signalable entry whose predicate evaluates
// to true.
func (cm *condManager) firstTrue(entries []*entry) *entry {
	for _, e := range entries {
		if !e.signalable() {
			continue
		}
		cm.m.stats.PredicateEvals++
		if e.evalFn() {
			return e
		}
	}
	return nil
}

// searchHeap is the threshold search of Fig. 4: examine the root tag; if it
// is false, every descendant is false and the search stops; if it is true
// but none of its predicates has a signalable true waiter, pop it to a
// backup list and look at the new root. Popped tags are reinserted before
// returning so the heap stays complete.
func (cm *condManager) searchHeap(h *tagHeap, v int64) *entry {
	if h.Len() == 0 {
		return nil
	}
	var backup []*tagNode
	var found *entry
	for h.Len() > 0 {
		root := h.root()
		cm.m.stats.TagChecks++
		if !root.holds(v) {
			break
		}
		if e := cm.firstTrue(root.entries); e != nil {
			found = e
			break
		}
		backup = append(backup, h.popRoot())
	}
	for _, b := range backup {
		h.push(b)
	}
	return found
}
