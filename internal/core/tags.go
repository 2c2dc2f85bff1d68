package core

import (
	"container/heap"

	"repro/internal/expr"
	"repro/internal/linear"
	"repro/internal/tag"
)

// sharedGroup holds every tag structure for one canonical shared expression
// (Fig. 7): a hash table of equivalence tags keyed by the globalized local
// value, a min-heap of {>, ≥} threshold tags, and a max-heap of {<, ≤}
// threshold tags. eval computes the shared expression's current value from
// the monitor cells it reads (cells). The group lives as long as a cached
// entry, active or parked, names it (refs): a parked entry keeps its
// groups' compiled evaluators alive for its reuse, and the eviction or
// discard of the last entry naming a group releases it.
type sharedGroup struct {
	exprStr string
	eval    expr.IntFn
	cells   []*cellWatch // the cells the shared expression reads, each linked to the group
	equiv   map[int64]*tagNode
	minHeap tagHeap // ops > and >=, smallest key at the root
	maxHeap tagHeap // ops < and <=, largest key at the root
	waiters int32   // waiters of the entries registered here, once per conjunction naming the group
	refs    int32   // tags of cached entries that name this group
	cand    bool    // on condManager.cand
}

// active reports whether an active entry names one of the group's tag
// nodes. The heaps hold only nodes with active entries; an equivalence
// node stays in equiv while a parked entry names it.
func (g *sharedGroup) active() bool {
	if g.minHeap.Len() > 0 || g.maxHeap.Len() > 0 {
		return true
	}
	for _, n := range g.equiv {
		if len(n.entries) > 0 {
			return true
		}
	}
	return false
}

// tagNode is one tag instance holding the active predicate entries it was
// assigned to. Multiple predicates with a common conjunct share a node
// (§4.3.1). A node lives as long as a cached entry, active or parked, names
// it (refs), so a parked entry keeps its nodes and a reuse only re-enters
// them. An equivalence node stays in its group's table for all that time;
// a threshold node is in its heap exactly while it has active entries.
type tagNode struct {
	group   *sharedGroup
	kind    tag.Kind
	key     int64
	op      expr.Op  // ==, or one of < <= > >=
	entries []*entry // the active entries that name the node, each once
	heapIdx int32    // index within its heap; -1 when not resident
	refs    int32    // (cached entry, conjunction) pairs that name the node
}

// holds reports whether the tag is true given the group's current value v.
func (n *tagNode) holds(v int64) bool {
	switch n.op {
	case expr.OpEq:
		return v == n.key
	case expr.OpLt:
		return v < n.key
	case expr.OpLe:
		return v <= n.key
	case expr.OpGt:
		return v > n.key
	case expr.OpGe:
		return v >= n.key
	}
	return false
}

func (n *tagNode) addEntry(e *entry) {
	n.entries = append(n.entries, e)
}

func (n *tagNode) removeEntry(e *entry) {
	for i, x := range n.entries {
		if x == e {
			last := len(n.entries) - 1
			n.entries[i] = n.entries[last]
			n.entries[last] = nil
			n.entries = n.entries[:last]
			return
		}
	}
}

// tagHeap orders threshold tag nodes so that if the root tag is false every
// other tag in the heap is false (§4.3.2). For the {>, ≥} heap that means
// ascending key with ≥ ordered before > at equal keys (x ≥ 3 is implied by
// x > 3's truth, not vice versa); the {<, ≤} heap mirrors this.
type tagHeap struct {
	items []*tagNode
	min   bool // true for the {>, ≥} min-heap
}

func (h *tagHeap) Len() int { return len(h.items) }

func (h *tagHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.min {
		if a.key != b.key {
			return a.key < b.key
		}
		// ≥ sorts before > : (5, ≥) is true whenever (5, >) is.
		return a.op == expr.OpGe && b.op == expr.OpGt
	}
	if a.key != b.key {
		return a.key > b.key
	}
	return a.op == expr.OpLe && b.op == expr.OpLt
}

func (h *tagHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].heapIdx = int32(i)
	h.items[j].heapIdx = int32(j)
}

func (h *tagHeap) Push(x any) {
	n := x.(*tagNode)
	n.heapIdx = int32(len(h.items))
	h.items = append(h.items, n)
}

func (h *tagHeap) Pop() any {
	last := len(h.items) - 1
	n := h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	n.heapIdx = -1
	return n
}

func (h *tagHeap) push(n *tagNode)   { heap.Push(h, n) }
func (h *tagHeap) remove(n *tagNode) { heap.Remove(h, int(n.heapIdx)) }
func (h *tagHeap) popRoot() *tagNode { return heap.Pop(h).(*tagNode) }

func (h *tagHeap) root() *tagNode {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

// compileForm builds the group evaluator for a canonical shared linear
// form: Σ coeffᵢ·getᵢ() + const over the monitor's cells. Boolean cells
// contribute their 0/1 encoding, which is how bare boolean atoms become
// equivalence tags.
func (m *Monitor) compileForm(f linear.Form) (expr.IntFn, error) {
	type term struct {
		get   expr.Getter
		coeff int64
	}
	terms := make([]term, 0, len(f.Coeffs))
	for _, name := range f.Vars() {
		s, ok := m.vars[name]
		if !ok {
			return nil, predErrf(f.String(), "shared expression references undeclared variable %q", name)
		}
		terms = append(terms, term{get: s.get, coeff: f.Coeffs[name]})
	}
	konst := f.Const
	return func() int64 {
		v := konst
		for _, t := range terms {
			v += t.coeff * t.get()
		}
		return v
	}, nil
}
