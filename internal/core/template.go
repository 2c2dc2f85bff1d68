package core

import (
	"encoding/binary"
	"strconv"

	"repro/internal/expr"
	"repro/internal/linear"
	"repro/internal/tag"
)

// This file implements the globalization fast path. A predicate like
// "count >= num" is analyzed once into a template: per atom, a compiled
// evaluator for the canonical shared linear form (count), a canonical
// comparison operator, and a compiled key function over the local
// bindings (num). Each Await then computes the key vector, forms the
// entry identity from (template canon, keys), and — on a miss — builds
// the entry from the precompiled pieces. No substitution, DNF
// re-canonicalization, string rendering of predicates, or expression
// compilation happens per wait; this is what makes AutoSynch competitive
// with hand-signaled monitors on complex-predicate workloads like the
// round-robin pattern (Fig. 11).
//
// Predicates that do not fit the template shape (atoms that are nonlinear
// in the shared variables, or atoms mentioning only locals, whose truth
// changes the DNF structure per binding) fall back to the generic
// substitution path in Await.

// atomTmpl is one pre-analyzed atom: sharedForm op key.
type atomTmpl struct {
	formVal expr.IntFn  // canonical shared form over the cells
	formStr string      // canonical rendering, the tag group identity
	form    linear.Form // kept for tag construction
	op      expr.Op     // comparison, sign-normalized
	keyIdx  int         // index into the entry's key vector; -1 → constant
	keyK    int64       // the constant key when keyIdx < 0
}

type conjTmpl struct {
	atoms  []atomTmpl
	tagIdx int // atom supplying the conjunction's tag; -1 → None
}

// predTmpl is the per-predicate analysis.
type predTmpl struct {
	conjs    []conjTmpl
	keyFns   []expr.IntFn  // key computations over the local binding slots
	keyNodes []expr.Node   // the key expressions themselves, for codegen
	canon    string        // template identity with $i key placeholders
	outside  *outsideReads // shared by the template's entries; nil when no conjunction has any
}

// buildTemplate analyzes p's DNF into a template, or returns nil when the
// predicate does not fit the template shape.
func (m *Monitor) buildTemplate(p *Predicate) *predTmpl {
	if p.d.IsTrue() || p.d.IsFalse() {
		// Constant predicates take the generic path, which resolves them
		// to the fast path or ErrNeverTrue.
		return nil
	}
	t := &predTmpl{}
	var canon []byte
	var outside [][]*cellWatch
	for ci, c := range p.d.Conjs {
		if ci > 0 {
			canon = append(canon, " || "...)
		}
		ct := conjTmpl{tagIdx: -1}
		var thresholdIdx = -1
		for ai, a := range c.Atoms {
			at, ok := m.buildAtom(p, t, a)
			if !ok {
				return nil
			}
			if ai > 0 {
				canon = append(canon, " && "...)
			}
			canon = append(canon, at.formStr...)
			canon = append(canon, ' ')
			canon = append(canon, at.op.String()...)
			canon = append(canon, ' ')
			if at.keyIdx >= 0 {
				canon = append(canon, '$')
				canon = strconv.AppendInt(canon, int64(at.keyIdx), 10)
			} else {
				canon = strconv.AppendInt(canon, at.keyK, 10)
			}
			if at.op == expr.OpEq && ct.tagIdx < 0 {
				ct.tagIdx = ai
			}
			if at.op.IsOrdering() && thresholdIdx < 0 {
				thresholdIdx = ai
			}
			ct.atoms = append(ct.atoms, at)
		}
		if ct.tagIdx < 0 {
			ct.tagIdx = thresholdIdx // may stay -1 → None
		}
		var out []*cellWatch
		if ct.tagIdx >= 0 {
			var names []string
			for _, at := range ct.atoms {
				names = append(names, at.form.Vars()...)
			}
			out = m.cellsOutside(ct.atoms[ct.tagIdx].form, names)
		}
		outside = append(outside, out)
		t.conjs = append(t.conjs, ct)
	}
	t.canon = string(canon)
	t.outside = newOutsideReads(outside)
	return t
}

// buildAtom analyzes one atom. The supported shapes are bare shared
// boolean variables, their negations, and comparisons linear in the
// shared variables with any local-only residual as the key.
func (m *Monitor) buildAtom(p *Predicate, t *predTmpl, a expr.Node) (atomTmpl, bool) {
	isShared := func(name string) bool {
		_, ok := m.vars[name]
		return ok
	}
	switch n := a.(type) {
	case expr.Var:
		if !isShared(n.Name) {
			return atomTmpl{}, false
		}
		return m.boolAtom(n.Name, 1)
	case expr.Unary:
		if n.Op != expr.OpNot {
			return atomTmpl{}, false
		}
		v, ok := n.X.(expr.Var)
		if !ok || !isShared(v.Name) {
			return atomTmpl{}, false
		}
		return m.boolAtom(v.Name, 0)
	case expr.Binary:
		if !n.Op.IsComparison() {
			return atomTmpl{}, false
		}
		s, ok := linear.Decompose(expr.Bin(expr.OpSub, n.L, n.R), isShared)
		if !ok || s.Shared.IsConst() {
			return atomTmpl{}, false
		}
		form, op, sign := s.Shared, n.Op, int64(1)
		if _, lead, _ := form.Leading(); lead < 0 {
			form = form.Scale(-1)
			op = op.Flip()
			sign = -1
		}
		formVal, err := m.compileForm(form)
		if err != nil {
			return atomTmpl{}, false
		}
		at := atomTmpl{formVal: formVal, formStr: form.String(), form: form, op: op, keyIdx: -1}
		// Atom ⇔ form op sign·(−(residual + const)).
		if len(s.Residuals) == 0 {
			at.keyK = sign * -s.Const
			return at, true
		}
		keyNode := expr.Neg(expr.Bin(expr.OpAdd, s.ResidualNode(), expr.I(s.Const)))
		if sign < 0 {
			keyNode = expr.Neg(keyNode)
		}
		folded := expr.Fold(keyNode)
		keyFn, err := expr.CompileInt(folded, func(name string) (expr.Getter, expr.Type, bool) {
			i, ok := p.localIdx[name]
			if !ok {
				return nil, expr.TypeInvalid, false
			}
			slot := &p.localVals[i]
			// Local booleans read as 0/1; the comparison stays sound in
			// the integer encoding.
			return func() int64 { return *slot }, expr.TypeInt, true
		})
		if err != nil {
			return atomTmpl{}, false
		}
		at.keyIdx = len(t.keyFns)
		t.keyFns = append(t.keyFns, keyFn)
		t.keyNodes = append(t.keyNodes, folded)
		return at, true
	}
	return atomTmpl{}, false
}

// boolAtom builds the template atom for a shared boolean variable
// compared against the constant want (1 for p, 0 for !p).
func (m *Monitor) boolAtom(name string, want int64) (atomTmpl, bool) {
	f := linear.NewForm()
	f.Coeffs[name] = 1
	formVal, err := m.compileForm(f)
	if err != nil {
		return atomTmpl{}, false
	}
	return atomTmpl{
		formVal: formVal, formStr: f.String(), form: f,
		op: expr.OpEq, keyIdx: -1, keyK: want,
	}, true
}

func cmpInt(op expr.Op, v, k int64) bool {
	switch op {
	case expr.OpEq:
		return v == k
	case expr.OpNe:
		return v != k
	case expr.OpLt:
		return v < k
	case expr.OpLe:
		return v <= k
	case expr.OpGt:
		return v > k
	case expr.OpGe:
		return v >= k
	}
	return false
}

// makeEval builds the entry evaluator over a frozen key vector.
func (t *predTmpl) makeEval(keys []int64) func() bool {
	conjs := t.conjs
	return func() bool {
		for ci := range conjs {
			c := &conjs[ci]
			ok := true
			for ai := range c.atoms {
				a := &c.atoms[ai]
				k := a.keyK
				if a.keyIdx >= 0 {
					k = keys[a.keyIdx]
				}
				if !cmpInt(a.op, a.formVal(), k) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
}

// tags materializes the per-conjunction tags for a key vector.
func (t *predTmpl) tags(keys []int64) []tag.Tag {
	out := make([]tag.Tag, len(t.conjs))
	for ci := range t.conjs {
		c := &t.conjs[ci]
		if c.tagIdx < 0 {
			out[ci] = tag.Tag{Kind: tag.None}
			continue
		}
		a := &c.atoms[c.tagIdx]
		k := a.keyK
		if a.keyIdx >= 0 {
			k = keys[a.keyIdx]
		}
		kind := tag.Threshold
		op := a.op
		if op == expr.OpEq {
			kind = tag.Equivalence
		}
		out[ci] = tag.Tag{Kind: kind, Expr: a.formStr, Form: a.form, Key: k, Op: op}
	}
	return out
}

// appendIdentity appends the entry identity for a key vector to buf. The
// template canon contains $i placeholders, so distinct key vectors cannot
// collide; each key follows a '\x00' as a varint, which is self-delimiting,
// so appending the raw keys is both unambiguous and cheap.
func (t *predTmpl) appendIdentity(buf []byte, keys []int64) []byte {
	buf = append(buf, t.canon...)
	for _, k := range keys {
		buf = append(buf, '\x00')
		buf = binary.AppendVarint(buf, k)
	}
	return buf
}

// templateEntry is the template slow path of Await: compute keys, then
// find or build the entry from the precompiled pieces.
func (m *Monitor) templateEntry(p *Predicate) (*entry, error) {
	t := p.tmpl
	// Static predicates short-circuit everything: the entry is registered
	// once and never evicted.
	if p.staticEntry != nil {
		return p.staticEntry, nil
	}
	var keysArr [8]int64
	var keys []int64
	if len(t.keyFns) <= len(keysArr) {
		keys = keysArr[:len(t.keyFns)]
	} else {
		keys = make([]int64, len(t.keyFns))
	}
	for i, fn := range t.keyFns {
		keys[i] = fn()
	}
	build := func(canon string) (*entry, error) {
		frozen := append([]int64(nil), keys...)
		evalFn := t.makeEval(frozen)
		if genEval := p.genEntryEval(); genEval != nil {
			evalFn = genEval
			m.stats.GenEntries++
		}
		return &entry{
			canon:    canon,
			static:   p.isShared(),
			noneIdx:  -1,
			evalFn:   evalFn,
			conjTags: t.tags(frozen),
			outside:  t.outside,
		}, nil
	}
	var e *entry
	var err error
	if len(keys) == 0 {
		// A keyless identity is the template canon: the entry shares its
		// string instead of copying it.
		e, err = getEntry(m.cm, t.canon, build)
	} else {
		m.cm.id = t.appendIdentity(m.cm.id[:0], keys)
		e, err = getEntry(m.cm, m.cm.id, build)
	}
	if err != nil {
		return nil, err
	}
	if p.isShared() {
		p.staticEntry = e
	}
	return e, nil
}
