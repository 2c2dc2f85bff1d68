package core

import (
	"slices"

	"repro/internal/dnf"
	"repro/internal/expr"
	"repro/internal/linear"
	"repro/internal/policy"
	"repro/internal/tag"
)

// entry is one registered (globalized) predicate — a row of the predicate
// table in Fig. 7. Threads waiting on syntactically equivalent predicates
// share an entry (§5.2). Its waiters are standalone *Wait objects: parked
// goroutines and armed handles are the same representation, and relay
// signaling delivers a notification on a waiter's channel rather than
// unparking a particular goroutine.
type entry struct {
	canon string // canonical globalized DNF string; identity key

	waiters []*Wait // registered waiters, parked and armed alike

	evalFn  func() bool   // whole-predicate evaluation against the cells
	outside *outsideReads // cells read outside the tags; nil for most entries

	// nodes is conjunction-aligned: nodes[i] is conjunction i's tag node,
	// nil for a None tag and for every conjunction when tagging is off.
	// The entry holds its nodes while it is cached, active or parked.
	nodes []*tagNode

	// tmpl is the template a template entry was built from, and keys the
	// vector its evaluator reads: the template keys, or the bindings of a
	// generated evaluator. A fresh entry of the same template built in a
	// released entry's storage overwrites keys and keeps the evaluator.
	tmpl *predTmpl
	keys []int64

	// prev and next link a parked entry into the inactive LRU ring
	// (condManager.lru); both are nil while the entry is active.
	prev, next *entry

	// policy is the per-predicate wake-policy override (Predicate.
	// UsePolicy): it refines which of THIS entry's waiters a signal
	// picks, taking precedence over the monitor policy within the entry.
	policy policy.Policy

	unnotified int32 // waiters with no notification in flight
	noneIdx    int32 // index in the None scan list, -1 when absent

	static   bool // shared predicate: registered once, never evicted
	active   bool // in the tag structures; a cached entry that is not is parked
	funcOnly bool // one-shot AwaitFunc/ArmFunc entry; never cached
}

// outsideReads lists, per conjunction, the cells a tagged conjunction
// reads outside its tag's shared expression, such as y in
// x >= k && y != 1. A write to one can turn the conjunction true while its
// tag group's value stands still, so while the entry is cached each such
// cell lists the conjunction's group as a reader (condManager.retain). A
// template computes the lists once for all its entries; a predicate with
// no such cell has none.
type outsideReads [][]*cellWatch

// outsideOf returns the cells conjunction i reads outside its tag.
func (e *entry) outsideOf(i int) []*cellWatch {
	if e.outside == nil {
		return nil
	}
	return (*e.outside)[i]
}

// newOutsideReads keeps per-conjunction lists, or nil when all are empty.
func newOutsideReads(conjs [][]*cellWatch) *outsideReads {
	for _, c := range conjs {
		if len(c) > 0 {
			o := outsideReads(conjs)
			return &o
		}
	}
	return nil
}

// cellsOutside returns the cells named by names, once each, that the tag
// form f does not read.
func (m *Monitor) cellsOutside(f linear.Form, names []string) []*cellWatch {
	var out []*cellWatch
	for _, name := range names {
		if _, inTag := f.Coeffs[name]; inTag {
			continue
		}
		if c := m.vars[name].watch(); !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// signalable reports whether the entry has a waiter without a pending
// notification. Entries whose every waiter is already notified are skipped
// by the relay search: notifying them again could only produce a futile
// wake-up.
func (e *entry) signalable() bool { return e.unnotified > 0 }

// firstUnnotified returns a waiter eligible for signal delivery.
func (e *entry) firstUnnotified() *Wait {
	for _, w := range e.waiters {
		if !w.notified {
			return w
		}
	}
	return nil
}

// pickUnnotified returns the unnotified waiter a signal to the entry
// wakes: the one the entry's own policy (Predicate.UsePolicy) prefers,
// else the one the monitor policy pol prefers, else the first found. The
// waiters slice uses swap-remove and so carries no arrival order; the
// policy compares the monitor-global arrival seq (and precomputed rank)
// captured on each Wait at registration.
func (e *entry) pickUnnotified(pol policy.Policy) *Wait {
	if e.policy != nil {
		pol = e.policy
	}
	if pol == nil {
		return e.firstUnnotified()
	}
	var best *Wait
	for _, w := range e.waiters {
		if w.notified {
			continue
		}
		if best == nil || pol.Better(cand(w), cand(best)) {
			best = w
		}
	}
	return best
}

// buildEntry compiles the globalized predicate and analyzes its tags,
// which it returns for retain, in the storage of the last released
// entry when there is one. Called under the monitor lock.
func (m *Monitor) buildEntry(canon string, glob dnf.DNF, static bool) (*entry, []tag.Tag, error) {
	conjFns := make([]expr.BoolFn, len(glob.Conjs))
	resolver := func(name string) (expr.Getter, expr.Type, bool) {
		s, ok := m.vars[name]
		if !ok {
			return nil, expr.TypeInvalid, false
		}
		return s.get, s.typ, true
	}
	for i, c := range glob.Conjs {
		fn, err := expr.CompileBool(expr.And(c.Atoms...), resolver)
		if err != nil {
			return nil, nil, predErrf(canon, "compile conjunction %q: %v", c.String(), err)
		}
		conjFns[i] = fn
	}
	tags := tag.Analyze(glob)
	outside := make([][]*cellWatch, len(glob.Conjs))
	for i, c := range glob.Conjs {
		if tags[i].Kind == tag.None {
			continue
		}
		var names []string
		for _, a := range c.Atoms {
			names = append(names, expr.Vars(a)...)
		}
		outside[i] = m.cellsOutside(tags[i].Form, names)
	}
	e := m.cm.recycled()
	e.canon = canon
	e.static = static
	e.outside = newOutsideReads(outside)
	e.tmpl = nil
	e.evalFn = func() bool {
		for _, fn := range conjFns {
			if fn() {
				return true
			}
		}
		return false
	}
	return e, tags, nil
}

// funcEntry wraps a closure predicate from AwaitFunc or ArmFunc. The
// closure may capture the calling goroutine's locals: they cannot change
// while it waits (Proposition 1), so evaluation by other threads under the
// monitor lock is sound. Closure predicates are opaque, so they carry no
// tag analysis: the caller puts the entry on the None list, which is
// scanned exhaustively, and it never reaches activate.
func (m *Monitor) funcEntry(f func() bool) *entry {
	return &entry{
		canon:    "<func>",
		evalFn:   f,
		noneIdx:  -1,
		funcOnly: true,
	}
}
