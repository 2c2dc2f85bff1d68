package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/dnf"
	"repro/internal/expr"
	"repro/internal/policy"
)

// Predicate is a compiled waiting condition: the per-source analysis of an
// Await predicate with parsing, type inference, canonicalization, DNF
// conversion, fast-path compilation, and tag-template derivation all done
// once, ahead of the wait path. Compile it once per scenario with
// Monitor.Compile (or CompileExpr for the typed builder) and wait on it
// any number of times with AwaitPred/Await; each wait only snapshots the
// local bindings and enqueues.
//
// A Predicate is bound to the monitor that compiled it (its evaluators
// read that monitor's cells); waiting on it from another monitor is an
// error. Binding values are stored under the monitor lock, so one compiled
// Predicate is safely shared by any number of waiting goroutines.
type Predicate struct {
	m    *Monitor
	src  string
	node expr.Node
	d    dnf.DNF // locals still symbolic

	localNames []string
	localIdx   map[string]int
	localTypes []expr.Type
	localVals  []int64 // current binding values, bools as 0/1; monitor-locked

	fast expr.BoolFn // evaluates node against cells + current localVals

	tmpl        *predTmpl // globalization fast path; nil → generic Subst path
	staticEntry *entry    // cached entry for shared (local-free) predicates

	gen      *GeneratedPred // registered generated evaluator; nil → closure path
	genCells *GenCells      // resolved cell layout for gen, nil with it

	policy policy.Policy // per-predicate wake policy; nil → monitor policy
}

// Src returns the predicate's canonical source text.
func (p *Predicate) Src() string { return p.src }

// Locals returns the names of the thread-local variables the predicate
// expects to be bound on every wait, in binding-slot order.
func (p *Predicate) Locals() []string {
	return append([]string(nil), p.localNames...)
}

// Await waits on the compiled predicate; see Monitor.AwaitPred.
func (p *Predicate) Await(binds ...Binding) error {
	return p.m.awaitPred(nil, time.Time{}, p, binds)
}

// AwaitCtx is Await with cancellation; see Monitor.AwaitPredCtx.
func (p *Predicate) AwaitCtx(ctx context.Context, binds ...Binding) error {
	return p.m.awaitPred(ctx, time.Time{}, p, binds)
}

// AwaitDeadline is Await with an absolute deadline; see
// Monitor.AwaitDeadline.
func (p *Predicate) AwaitDeadline(deadline time.Time, binds ...Binding) error {
	return p.m.awaitPred(nil, deadline, p, binds)
}

// UsePolicy attaches a wake policy to this predicate and returns the
// predicate for chaining. The policy decides which of the predicate's
// waiters a signal picks, overriding the monitor policy within this
// predicate's entry; across entries the monitor policy (if any) still
// arbitrates. Call it from setup code before waiting begins — the
// policy is attached to the underlying table entry as waits arrive.
func (p *Predicate) UsePolicy(pol policy.Policy) *Predicate {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	p.policy = pol
	if p.staticEntry != nil {
		p.staticEntry.policy = pol
	}
	return p
}

// localsMap snapshots the current binding values by name for policy rank
// computation. Called under the monitor lock after setBinds.
func (p *Predicate) localsMap() map[string]int64 {
	if len(p.localNames) == 0 {
		return nil
	}
	binds := make(map[string]int64, len(p.localNames))
	for i, name := range p.localNames {
		binds[name] = p.localVals[i]
	}
	return binds
}

// Arm registers a waiter for the predicate without blocking and returns
// its first-class handle: Ready fires when relay signaling finds the
// predicate true, Claim re-enters the monitor and re-validates it
// Mesa-style (re-arming transparently if a racing mutation falsified it),
// and Cancel abandons the registration. One goroutine can therefore
// multiplex any number of resources by selecting over armed handles,
// where each blocking Await would cost a parked goroutine; see Wait.
//
// The bindings are snapshotted now, exactly as Await would. Arming errors
// — binding mismatches, a globalization that is constant false
// (ErrNeverTrue) — are delivered through the handle: Ready is already
// closed and Claim/Err report the error, so a select loop needs no
// separate error path.
//
// Arm acquires the monitor internally: call it outside Enter/Exit.
func (p *Predicate) Arm(binds ...Binding) *Wait {
	m := p.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Arms++
	if err := p.setBinds(binds); err != nil {
		return failedWait(err)
	}
	e, err := m.entryFor(p)
	if err != nil {
		return failedWait(err)
	}
	if e == nil {
		// Globalization folded to constant true: the handle is born ready
		// and Claim always succeeds.
		w := newWait(m)
		w.notify()
		return w
	}
	var rank int64
	if e.policy != nil || m.pol != nil {
		rank = m.rankFor(e, p.localsMap())
	}
	return m.armEntry(e, rank)
}

// Try is the non-blocking degenerate case of Await: it binds and
// evaluates once inside the monitor, reporting whether the predicate
// holds right now; see Monitor.TryPred.
func (p *Predicate) Try(binds ...Binding) (bool, error) {
	return p.m.TryPred(p, binds...)
}

// PredicateError reports a malformed predicate or a binding mismatch.
// Every predicate-shaped failure — parse errors, type errors, DNF blow-up,
// bind-time arity/name/type mismatches, and unsatisfiable globalizations —
// is a *PredicateError, so callers can uniformly errors.As on it; Err
// carries a sentinel cause (ErrNeverTrue) when one applies, reachable via
// errors.Is.
type PredicateError struct {
	Src string
	Msg string
	Err error // sentinel cause (e.g. ErrNeverTrue); nil otherwise
}

func (e *PredicateError) Error() string {
	return fmt.Sprintf("predicate %q: %s", e.Src, e.Msg)
}

// Unwrap exposes the sentinel cause to errors.Is.
func (e *PredicateError) Unwrap() error { return e.Err }

func predErrf(src, format string, args ...any) error {
	return &PredicateError{Src: src, Msg: fmt.Sprintf(format, args...)}
}

// errNeverTrue builds the ErrNeverTrue failure for a predicate whose
// globalization folded to constant false.
func errNeverTrue(src string) error {
	return &PredicateError{Src: src, Msg: "globalized predicate is constant false with the given bindings", Err: ErrNeverTrue}
}

// maxLocals bounds the number of local variables per predicate; the bind
// validator tracks the bound set in one machine word.
const maxLocals = 64

// Compile analyzes src once and returns the reusable compiled predicate.
// The predicate may reference the monitor's shared variables and any
// thread-local variables; local types are inferred from usage at compile
// time (an equality between two otherwise unconstrained locals defaults
// them to int) and bindings are validated against them on every wait.
//
// Compile acquires the monitor internally: call it from setup code, not
// between Enter and Exit. Compiling the same source twice returns the same
// cached *Predicate; Await with a string predicate consults the same
// cache, so the two forms can be mixed freely.
func (m *Monitor) Compile(src string) (*Predicate, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compile(src)
}

// MustCompile is Compile for predicates that are known to be well-formed;
// it panics on error. Intended for scenario setup and static tables.
func (m *Monitor) MustCompile(src string) *Predicate {
	p, err := m.Compile(src)
	if err != nil {
		panic("autosynch: MustCompile: " + err.Error())
	}
	return p
}

// compile is Compile under the monitor lock (the Await string path enters
// here directly).
func (m *Monitor) compile(src string) (*Predicate, error) {
	if p, ok := m.preds[src]; ok {
		return p, nil
	}
	node, err := expr.Parse(src)
	if err != nil {
		return nil, predErrf(src, "parse: %v", err)
	}
	return m.compileNodeCached(src, node)
}

// compileNodeCached is the shared cache path behind compile and
// CompileExpr: the string and builder forms of one predicate resolve to
// the same *Predicate because both store through here under the canonical
// source key. Called under the monitor lock with the cache already missed
// for src (a builder caller checks before rendering work; re-checking is
// harmless).
func (m *Monitor) compileNodeCached(src string, node expr.Node) (*Predicate, error) {
	if p, ok := m.preds[src]; ok {
		return p, nil
	}
	p, err := m.compileNode(src, node)
	if err != nil {
		return nil, err
	}
	m.preds[src] = p
	return p, nil
}

// compileNode builds the compiled predicate for an already-parsed tree.
// Called under the monitor lock.
func (m *Monitor) compileNode(src string, node expr.Node) (*Predicate, error) {
	p := &Predicate{m: m, src: src, node: node, localIdx: map[string]int{}}

	sharedType := func(name string) (expr.Type, bool) {
		if s, ok := m.vars[name]; ok {
			return s.typ, true
		}
		return expr.TypeInvalid, false
	}
	localType, err := expr.Infer(node, sharedType)
	if err != nil {
		return nil, predErrf(src, "%v", err)
	}
	for _, name := range expr.Vars(node) {
		if _, shared := m.vars[name]; shared {
			continue
		}
		p.localIdx[name] = len(p.localNames)
		p.localNames = append(p.localNames, name)
		p.localTypes = append(p.localTypes, localType[name])
	}
	if len(p.localNames) > maxLocals {
		return nil, predErrf(src, "predicate has %d local variables; the limit is %d", len(p.localNames), maxLocals)
	}
	p.localVals = make([]int64, len(p.localNames))

	if err := expr.CheckBool(node, func(name string) (expr.Type, bool) {
		if s, ok := m.vars[name]; ok {
			return s.typ, true
		}
		if i, ok := p.localIdx[name]; ok {
			return p.localTypes[i], true
		}
		return expr.TypeInvalid, false
	}); err != nil {
		return nil, predErrf(src, "%v", err)
	}

	intVar := func(name string) bool {
		if s, ok := m.vars[name]; ok {
			return s.typ == expr.TypeInt
		}
		if i, ok := p.localIdx[name]; ok {
			return p.localTypes[i] == expr.TypeInt
		}
		return false
	}
	d, err := dnf.ConvertTyped(node, dnf.DefaultMaxConjunctions, intVar)
	if err != nil {
		return nil, predErrf(src, "%v", err)
	}
	p.d = d

	fast, err := expr.CompileBool(node, func(name string) (expr.Getter, expr.Type, bool) {
		if s, ok := m.vars[name]; ok {
			return s.get, s.typ, true
		}
		if i, ok := p.localIdx[name]; ok {
			slot := &p.localVals[i]
			return func() int64 { return *slot }, p.localTypes[i], true
		}
		return nil, expr.TypeInvalid, false
	})
	if err != nil {
		return nil, predErrf(src, "compile: %v", err)
	}
	p.fast = fast
	p.tmpl = m.buildTemplate(p)
	m.bindGenerated(p)
	return p, nil
}

// setBinds validates the bindings against the compile-time local-variable
// set — every local bound exactly once, no unknown or shared names, types
// matching the inferred ones — and stores the values for the current wait.
// Binding j is matched against slot j first, so bindings given in slot
// order resolve without a map lookup. Called under the monitor lock.
func (p *Predicate) setBinds(binds []Binding) error {
	var bound uint64
	for j, b := range binds {
		i, ok := j, j < len(p.localNames) && p.localNames[j] == b.Name
		if !ok {
			i, ok = p.localIdx[b.Name]
		}
		if !ok {
			if _, shared := p.m.vars[b.Name]; shared {
				return predErrf(p.src, "%q is a shared monitor variable and cannot be bound", b.Name)
			}
			return predErrf(p.src, "binding %q does not match any local variable (locals: %v) among %d binding(s)",
				b.Name, p.localNames, len(binds))
		}
		if bound&(1<<uint(i)) != 0 {
			return predErrf(p.src, "duplicate binding %q", b.Name)
		}
		bound |= 1 << uint(i)
		if b.Val.Type != p.localTypes[i] {
			return predErrf(p.src, "binding %q has type %s, predicate uses it as %s", b.Name, b.Val.Type, p.localTypes[i])
		}
		if b.Val.Type == expr.TypeBool {
			if b.Val.B {
				p.localVals[i] = 1
			} else {
				p.localVals[i] = 0
			}
		} else {
			p.localVals[i] = b.Val.I
		}
	}
	if len(binds) != len(p.localNames) {
		var missing []string
		for i, name := range p.localNames {
			if bound&(1<<uint(i)) == 0 {
				missing = append(missing, name)
			}
		}
		return predErrf(p.src, "local variable(s) %s neither a shared monitor variable nor bound (%d binding(s) for locals %v)",
			strings.Join(missing, ", "), len(binds), p.localNames)
	}
	return nil
}

// bindEnv exposes the current binding values as a substitution environment
// for globalization.
func (p *Predicate) bindEnv() expr.Env {
	return func(name string) (expr.Value, bool) {
		i, ok := p.localIdx[name]
		if !ok {
			return expr.Value{}, false
		}
		if p.localTypes[i] == expr.TypeBool {
			return expr.BoolValue(p.localVals[i] != 0), true
		}
		return expr.IntValue(p.localVals[i]), true
	}
}

// isShared reports whether the predicate mentions no local variables, in
// which case its globalization is itself and the registered entry is static
// (never evicted — §5.2).
func (p *Predicate) isShared() bool { return len(p.localNames) == 0 }
