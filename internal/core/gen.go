package core

import (
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/tag"
)

// This file is the runtime half of the predicate code generator
// (internal/codegen + cmd/minisynchc). The generator emits, per predicate,
// a monomorphic Go evaluator that reads the monitor's cells directly — no
// closure tree, no binding map, no expr.Value boxing — plus key functions
// matching the tag template's §4.3 linear-form decomposition. Generated
// files register those functions in a process-global registry from init();
// compileNode then transparently swaps them in for the closure-compiled
// evaluators whenever the canonical source, shared-variable types, and
// local-variable types all match. Nothing else changes: the DNF analysis,
// tag template, and entry identities are exactly the interpreter's, so a
// registration can never alter which waiter is signaled — only how fast
// the predicate evaluates. Stats records which path served (GenPreds /
// GenMisses / GenEntries), and WithoutGenerated opts a monitor out.

// GenVar names one variable of a generated predicate together with its
// type (int by default, bool when Bool is set).
type GenVar struct {
	Name string
	Bool bool
}

// GenCells is the resolved shared-state view passed to generated
// evaluators: the predicate's referenced shared variables in sorted name
// order, integers in I and booleans in B (each keeping the sorted order
// within its type). The generator emits index constants against the same
// layout, so a cell read is one slice index and one inlinable Get.
type GenCells struct {
	I []*IntCell
	B []*BoolCell
}

// GenEval is a generated whole-predicate evaluator. locals holds the
// current binding values in binding-slot order, booleans encoded as 0/1 —
// the same encoding Predicate.setBinds maintains.
type GenEval func(c *GenCells, locals []int64) bool

// GenKeyFn is a generated tag-key computation over the local bindings,
// mirroring one of the template's compiled key functions.
type GenKeyFn func(locals []int64) int64

// GeneratedPred is one registered generated predicate.
type GeneratedPred struct {
	// Src is the canonical predicate source, expr.Node.String() of the
	// parsed tree; the string and builder forms of one predicate share it.
	Src string
	// Shared lists the referenced shared variables in sorted name order
	// with their types; a monitor whose declarations disagree falls back
	// to the closure path (the signature won't match).
	Shared []GenVar
	// Locals lists the thread-local variables in binding-slot order
	// (sorted, since slots are assigned in expr.Vars order).
	Locals []GenVar
	// Eval evaluates the predicate against resolved cells and bindings.
	Eval GenEval
	// TagCanon is the tag template's canonical identity ($i key
	// placeholders) as derived at generation time, and Keys the generated
	// key functions in template order. They are consulted only if they
	// match the runtime's own template derivation exactly; on any
	// disagreement the runtime keeps its compiled key functions.
	TagCanon string
	Keys     []GenKeyFn
}

// sig renders the registry key: canonical source plus the typed shared
// and local variable lists. Two predicates share a generated evaluator
// only when all three agree.
func (g *GeneratedPred) sig() string { return genSig(g.Src, g.Shared, g.Locals) }

func genSig(src string, shared, locals []GenVar) string {
	var b strings.Builder
	b.Grow(len(src) + 8*(len(shared)+len(locals)) + 2)
	b.WriteString(src)
	b.WriteByte('\x01')
	for _, v := range shared {
		b.WriteByte('\x00')
		b.WriteString(v.Name)
		if v.Bool {
			b.WriteString(":bool")
		} else {
			b.WriteString(":int")
		}
	}
	b.WriteByte('\x01')
	for _, v := range locals {
		b.WriteByte('\x00')
		b.WriteString(v.Name)
		if v.Bool {
			b.WriteString(":bool")
		} else {
			b.WriteString(":int")
		}
	}
	return b.String()
}

var (
	genMu       sync.RWMutex
	genRegistry = map[string]*GeneratedPred{}
)

// RegisterGenerated installs a generated predicate in the process-global
// registry. It is called from init() of zz_generated_preds.go files
// emitted by minisynchc; monitors constructed afterwards pick the
// evaluator up in Compile. Re-registering the same signature overwrites
// (latest wins), so regenerated packages need no dedup bookkeeping.
func RegisterGenerated(g GeneratedPred) {
	if g.Eval == nil {
		panic("autosynch: RegisterGenerated with nil Eval")
	}
	genMu.Lock()
	defer genMu.Unlock()
	genRegistry[g.sig()] = &g
}

// GeneratedCount returns the number of registered generated predicates;
// diagnostics and tests only.
func GeneratedCount() int {
	genMu.RLock()
	defer genMu.RUnlock()
	return len(genRegistry)
}

func lookupGenerated(sig string) *GeneratedPred {
	genMu.RLock()
	defer genMu.RUnlock()
	return genRegistry[sig]
}

// GenDiv is integer division with the compiled-predicate convention:
// division by zero evaluates to 0 ("not yet true") instead of panicking,
// matching expr.CompileBool. Generated code calls it for every / operator.
func GenDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// GenMod is the modulus companion of GenDiv.
func GenMod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a % b
}

// genVars computes the typed shared and local variable lists that form
// the predicate's registry signature. Both lists are sorted by name:
// expr.Vars is sorted, and local binding slots are assigned in that order.
func (p *Predicate) genVars() (shared, locals []GenVar) {
	for _, name := range expr.Vars(p.node) {
		if s, ok := p.m.vars[name]; ok {
			shared = append(shared, GenVar{Name: name, Bool: s.typ == expr.TypeBool})
		}
	}
	for i, name := range p.localNames {
		locals = append(locals, GenVar{Name: name, Bool: p.localTypes[i] == expr.TypeBool})
	}
	return shared, locals
}

// resolveGenCells lays the predicate's referenced shared cells out in the
// GenCells order the generator indexed against (sorted by name within
// each type). Called under the monitor lock at compile time.
func (m *Monitor) resolveGenCells(shared []GenVar) *GenCells {
	c := &GenCells{}
	for _, v := range shared {
		s := m.vars[v.Name]
		if v.Bool {
			c.B = append(c.B, s.bc)
		} else {
			c.I = append(c.I, s.ic)
		}
	}
	return c
}

// bindGenerated swaps a registered generated evaluator into a freshly
// compiled predicate: the fast-path evaluator is replaced by the
// monomorphic one, and — when the generation-time template derivation
// matches the runtime's exactly — the template key functions as well.
// A miss (or WithoutGenerated) leaves the closure-compiled path in place.
// Called under the monitor lock at the end of compileNode.
func (m *Monitor) bindGenerated(p *Predicate) {
	if !m.cfg.generated {
		return
	}
	shared, locals := p.genVars()
	g := lookupGenerated(genSig(p.node.String(), shared, locals))
	if g == nil {
		m.stats.GenMisses++
		return
	}
	cells := m.resolveGenCells(shared)
	p.gen = g
	p.genCells = cells
	eval := g.Eval
	locVals := p.localVals
	p.fast = func() bool { return eval(cells, locVals) }
	if p.tmpl != nil && g.TagCanon == p.tmpl.canon && len(g.Keys) == len(p.tmpl.keyFns) {
		for i := range g.Keys {
			kf := g.Keys[i]
			p.tmpl.keyFns[i] = func() int64 { return kf(locVals) }
		}
	}
	m.stats.GenPreds++
}

// genEntryEval builds a whole-entry evaluator from the generated
// predicate with the current bindings frozen, the generated analog of
// predTmpl.makeEval / buildEntry. Sound on both registration paths: an
// entry's identity already pins the predicate truth function (template
// atoms depend on locals only through the frozen keys; the Subst path
// keys the entry by the globalized DNF itself), so evaluating the
// original predicate under the frozen bindings is exactly the globalized
// predicate. Called under the monitor lock; returns nil when the
// predicate has no generated evaluator bound.
func (p *Predicate) genEntryEval() func() bool {
	g := p.gen
	if g == nil {
		return nil
	}
	cells := p.genCells
	eval := g.Eval
	var frozen []int64
	if len(p.localVals) > 0 {
		frozen = append([]int64(nil), p.localVals...)
	}
	return func() bool { return eval(cells, frozen) }
}

// Generated reports whether a registered generated evaluator serves this
// predicate's wait path (false means the closure-compiled fallback).
func (p *Predicate) Generated() bool { return p.gen != nil }

// GenSpec is the compile-time shape of a predicate that the code
// generator (internal/codegen) emits from. Introspecting the runtime's
// own analysis — rather than re-deriving it — guarantees the generated
// registration's signature and tag canon match what bindGenerated will
// compute, byte for byte.
type GenSpec struct {
	Canon    string      // canonical source, expr.Node.String()
	Node     expr.Node   // the parsed, type-checked tree
	Shared   []GenVar    // referenced shared variables, sorted by name
	Locals   []GenVar    // locals in binding-slot order
	TagCanon string      // template identity; "" when no template applies
	KeyNodes []expr.Node // key expressions over locals, template order
}

// GenSpec exposes the predicate's generation shape; see GenSpec.
func (p *Predicate) GenSpec() GenSpec {
	shared, locals := p.genVars()
	s := GenSpec{Canon: p.node.String(), Node: p.node, Shared: shared, Locals: locals}
	if p.tmpl != nil {
		s.TagCanon = p.tmpl.canon
		s.KeyNodes = append([]expr.Node(nil), p.tmpl.keyNodes...)
	}
	return s
}

// EntryProbe is the registration-time view of one (predicate, bindings)
// combination: the entry identity, its evaluator's current verdict, and
// the tags it is registered under, read back from its tag nodes.
// Differential tests compare probes across a generated-evaluator monitor,
// the closure-compiled fallback, and the AST interpreter to pin codegen ≡
// interpreter.
type EntryProbe struct {
	Fast   bool      // fast-path evaluator verdict before registration
	Folded bool      // globalization folded to constant true (no entry)
	Canon  string    // entry identity ("" when folded)
	Eval   bool      // entry evaluator verdict at probe time
	Tags   []tag.Tag // per-conjunction tags read from the entry's nodes (Form empty)
}

// ProbeEntry binds, evaluates the fast path, resolves the entry exactly
// as AwaitPred would, and reports what it found without ever parking.
// The probed entry is registered and immediately retired, so the probe
// perturbs only the Registrations/Reuses counters. Test hook; call it
// outside Enter/Exit.
func (m *Monitor) ProbeEntry(p *Predicate, binds ...Binding) (EntryProbe, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p == nil {
		return EntryProbe{}, &PredicateError{Src: "<nil>", Msg: "nil predicate"}
	}
	if p.m != m {
		return EntryProbe{}, predErrf(p.src, "predicate was compiled by a different monitor")
	}
	if err := p.setBinds(binds); err != nil {
		return EntryProbe{}, err
	}
	pr := EntryProbe{Fast: p.fast()}
	e, err := m.entryFor(p)
	if err != nil {
		return EntryProbe{}, err
	}
	if e == nil {
		pr.Folded = true
		pr.Eval = true
		return pr, nil
	}
	pr.Canon = e.canon
	m.stats.PredicateEvals++
	pr.Eval = e.evalFn()
	pr.Tags = make([]tag.Tag, len(e.nodes))
	for i, n := range e.nodes {
		if n != nil {
			pr.Tags[i] = tag.Tag{Kind: n.kind, Expr: n.group.exprStr, Key: n.key, Op: n.op}
		}
	}
	m.retireIfIdle(e)
	return pr, nil
}
