package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
)

// ErrNeverTrue is the sentinel cause reported (wrapped in a
// *PredicateError) when the globalized predicate folds to the constant
// false: the local bindings make the condition unsatisfiable for every
// possible shared state, so waiting would deadlock the caller. Test for it
// with errors.Is(err, ErrNeverTrue).
var ErrNeverTrue = errors.New("autosynch: globalized predicate is constant false")

// Monitor is an automatic-signal monitor. Member-function bodies run
// between Enter and Exit (or inside Do); Await replaces the paper's
// waituntil statement. There are no condition variables and no signal
// calls in the client API — the condition manager signals the appropriate
// thread when a waiter's predicate becomes true (relay signaling, §4.2).
//
// By default the monitor is the full AutoSynch mechanism with predicate
// tagging; construct with WithoutTagging for the AutoSynch-T variant.
type Monitor struct {
	host
	cfg   config
	vars  map[string]*varSlot
	preds map[string]*Predicate
	cm    *condManager
}

// New constructs a monitor.
func New(opts ...Option) *Monitor {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	m := &Monitor{
		cfg:   cfg,
		vars:  map[string]*varSlot{},
		preds: map[string]*Predicate{},
	}
	m.setup(cfg, "monitor")
	m.cm = newCondManager(m)
	return m
}

// NewInt declares a shared integer variable. Declare every shared variable
// before the monitor is used; redeclaring a name panics.
func (m *Monitor) NewInt(name string, init int64) *IntCell {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &IntCell{v: init, name: name, cellWatch: cellWatch{cm: m.cm}}
	m.declare(name, &varSlot{
		typ:  expr.TypeInt,
		get:  func() int64 { return c.v },
		ic:   c,
		name: name,
	})
	return c
}

// NewBool declares a shared boolean variable.
func (m *Monitor) NewBool(name string, init bool) *BoolCell {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &BoolCell{v: init, name: name, cellWatch: cellWatch{cm: m.cm}}
	m.declare(name, &varSlot{
		typ: expr.TypeBool,
		get: func() int64 {
			if c.v {
				return 1
			}
			return 0
		},
		bc:   c,
		name: name,
	})
	return c
}

func (m *Monitor) declare(name string, s *varSlot) {
	if !validVarName(name) {
		panic(fmt.Sprintf("autosynch: invalid shared variable name %q", name))
	}
	if _, dup := m.vars[name]; dup {
		panic(fmt.Sprintf("autosynch: shared variable %q declared twice", name))
	}
	m.vars[name] = s
}

func validVarName(name string) bool {
	if name == "" || name == "true" || name == "false" {
		return false
	}
	n, err := expr.Parse(name)
	if err != nil {
		return false
	}
	_, isVar := n.(expr.Var)
	return isVar
}

// Exit relays a signal to a waiter whose condition has become true (the
// relay signaling rule runs on every monitor exit) and releases the
// monitor.
func (m *Monitor) Exit() {
	if !m.in {
		panic("autosynch: Exit without Enter")
	}
	if m.rec != nil {
		// A relay issued from a plain exit starts a fresh wake chain: the
		// exiting thread consumed no notification, so any origin left by
		// an earlier consume on this monitor is stale here.
		m.cm.relayOrigin = 0
		m.rec.Record(obs.KExit, 0, 0)
	}
	m.cm.relaySignal()
	m.in = false
	m.mu.Unlock()
}

// Do runs f inside the monitor: Enter, f, Exit.
func (m *Monitor) Do(f func()) {
	m.Enter()
	defer m.Exit()
	f()
}

// Await blocks until the predicate holds — the paper's waituntil(P).
//
// The predicate source may reference the monitor's shared variables and
// any local variables supplied through bindings. Await must be called
// inside the monitor (between Enter and Exit); while the caller waits the
// monitor is released, and when Await returns the caller holds the monitor
// and the predicate is true.
//
// The string form is convenience sugar over the compiled-predicate API: it
// consults the monitor's predicate cache and otherwise compiles on first
// use, so hot loops pay a map lookup per wait. Compile once and use
// AwaitPred (or Predicate.Await) to hoist even that off the wait path.
//
// Errors are *PredicateError values reporting malformed predicates,
// binding mismatches, or a globalized predicate that is constant false
// (errors.Is(err, ErrNeverTrue)); no error paths block.
func (m *Monitor) Await(pred string, binds ...Binding) error {
	return m.await(nil, time.Time{}, pred, binds)
}

// AwaitCtx is Await with cancellation: if ctx is done before the predicate
// becomes true, the waiter is abandoned and AwaitCtx returns ctx.Err().
//
// Like Await, AwaitCtx returns holding the monitor — on cancellation too —
// so the usual Enter/defer-Exit pairing stays valid. An abandoned waiter
// is fully unregistered from the predicate table and the tag structures,
// and relay invariance is preserved: before returning, the abandoning
// thread reconciles any signal that was in flight to it and relays to the
// next waiter whose predicate holds, so no wake-up is lost. Cancellation
// takes priority once observed: a waiter woken by a cancellation returns
// ctx.Err() even if its predicate has just become true.
func (m *Monitor) AwaitCtx(ctx context.Context, pred string, binds ...Binding) error {
	return m.await(ctx, time.Time{}, pred, binds)
}

// AwaitDeadline is Await with an absolute deadline: if the predicate has
// not become true by then, the waiter is abandoned and AwaitDeadline
// returns ErrDeadline. Deadlines are the timer-shaped peer of AwaitCtx —
// same return-holding-the-monitor contract, same unregistration and
// relay-invariance repair, same priority rule (an expiry observed on
// wake-up wins even if the predicate just became true) — but they are
// armed as a runtime timer (time.AfterFunc) instead of a context, so a
// deadline'd wait costs no extra goroutine. A deadline already in the
// past fails immediately without evaluating the predicate.
func (m *Monitor) AwaitDeadline(deadline time.Time, pred string, binds ...Binding) error {
	return m.await(nil, deadline, pred, binds)
}

// AwaitTimeout is AwaitDeadline with a relative duration.
func (m *Monitor) AwaitTimeout(d time.Duration, pred string, binds ...Binding) error {
	return m.await(nil, time.Now().Add(d), pred, binds)
}

func (m *Monitor) await(ctx context.Context, deadline time.Time, pred string, binds []Binding) error {
	if !m.in {
		panic("autosynch: Await outside the monitor; call Enter first")
	}
	p, err := m.compile(pred)
	if err != nil {
		m.stats.Awaits++
		return err
	}
	return m.awaitPred(ctx, deadline, p, binds)
}

// AwaitPred waits on a predicate compiled with Compile or CompileExpr.
// All analysis was done at compile time; AwaitPred only validates and
// snapshots the bindings, checks the fast path, and enqueues — this is
// the hot-path form of Await.
func (m *Monitor) AwaitPred(p *Predicate, binds ...Binding) error {
	return m.awaitPred(nil, time.Time{}, p, binds)
}

// AwaitPredCtx is AwaitPred with cancellation; see AwaitCtx for the
// abandonment semantics.
func (m *Monitor) AwaitPredCtx(ctx context.Context, p *Predicate, binds ...Binding) error {
	return m.awaitPred(ctx, time.Time{}, p, binds)
}

// AwaitPredDeadline is AwaitPred with an absolute deadline; see
// AwaitDeadline for the expiry semantics.
func (m *Monitor) AwaitPredDeadline(deadline time.Time, p *Predicate, binds ...Binding) error {
	return m.awaitPred(nil, deadline, p, binds)
}

func (m *Monitor) awaitPred(ctx context.Context, deadline time.Time, p *Predicate, binds []Binding) error {
	if err := m.awaitStart(ctx, deadline, "Await"); err != nil {
		return err
	}
	if p == nil {
		return &PredicateError{Src: "<nil>", Msg: "nil predicate"}
	}
	if p.m != m {
		return predErrf(p.src, "predicate was compiled by a different monitor")
	}
	if err := p.setBinds(binds); err != nil {
		return err
	}
	if p.fast() {
		m.stats.FastPath++
		return nil
	}
	e, err := m.entryFor(p)
	if err != nil {
		return err
	}
	if e == nil {
		// Folding knew more than the compiled evaluator (e.g. a
		// division-by-zero fallback); treat as satisfied.
		m.stats.FastPath++
		return nil
	}
	var rank int64
	if e.policy != nil || m.pol != nil {
		rank = m.rankFor(e, p.localsMap())
	}
	return m.wait(ctx, deadline, e, rank)
}

// entryFor resolves the predicate plus its current bindings to a
// registered entry: the template fast path when the predicate fits the
// template shape, otherwise globalization by substitution (Definition 2).
// A nil entry with a nil error means the globalization folded to true.
// The predicate's per-predicate wake policy, if any, is attached to the
// entry here, so it governs every waiter sharing the entry.
func (m *Monitor) entryFor(p *Predicate) (*entry, error) {
	e, err := m.resolveEntry(p)
	if e != nil && p.policy != nil {
		e.policy = p.policy
	}
	return e, err
}

func (m *Monitor) resolveEntry(p *Predicate) (*entry, error) {
	if p.tmpl != nil {
		return m.templateEntry(p)
	}
	glob, err := p.d.Subst(p.bindEnv())
	if err != nil {
		return nil, predErrf(p.src, "globalize: %v", err)
	}
	if glob.IsTrue() {
		return nil, nil
	}
	if glob.IsFalse() {
		return nil, errNeverTrue(p.src)
	}
	return getEntry(m.cm, glob.String(), func(canon string) (*entry, error) {
		e, err := m.buildEntry(canon, glob, p.isShared())
		if err != nil {
			return nil, err
		}
		// The entry is keyed by the globalized DNF, so the generated
		// evaluator under the frozen bindings computes the same truth
		// function; swap it in for the per-conjunction closures.
		if genEval := p.genEntryEval(); genEval != nil {
			e.evalFn = genEval
			m.stats.GenEntries++
		}
		return e, nil
	})
}

// AwaitFunc blocks until the closure predicate returns true. The closure
// is evaluated by other threads while they hold the monitor, so it must
// only read state guarded by this monitor and the caller's own locals
// (which cannot change while it waits — Proposition 1). Closure predicates
// are opaque to tagging and are scanned exhaustively; prefer Await with a
// predicate string where possible.
func (m *Monitor) AwaitFunc(pred func() bool) {
	_ = m.awaitFunc(nil, time.Time{}, pred)
}

// AwaitFuncCtx is AwaitFunc with cancellation; see AwaitCtx for the
// abandonment semantics.
func (m *Monitor) AwaitFuncCtx(ctx context.Context, pred func() bool) error {
	return m.awaitFunc(ctx, time.Time{}, pred)
}

// AwaitFuncDeadline is AwaitFunc with an absolute deadline; see
// AwaitDeadline for the expiry semantics.
func (m *Monitor) AwaitFuncDeadline(deadline time.Time, pred func() bool) error {
	return m.awaitFunc(nil, deadline, pred)
}

// AwaitFuncTimeout is AwaitFuncDeadline with a relative duration.
func (m *Monitor) AwaitFuncTimeout(d time.Duration, pred func() bool) error {
	return m.awaitFunc(nil, time.Now().Add(d), pred)
}

func (m *Monitor) awaitFunc(ctx context.Context, deadline time.Time, pred func() bool) error {
	if err := m.awaitStart(ctx, deadline, "AwaitFunc"); err != nil {
		return err
	}
	m.stats.PredicateEvals++
	if pred() {
		m.stats.FastPath++
		return nil
	}
	e := m.funcEntry(pred)
	e.noneIdx = len(m.cm.none)
	m.cm.none = append(m.cm.none, e)
	return m.wait(ctx, deadline, e, m.rankFor(e, nil))
}

// wait is the waituntil loop of Fig. 6, expressed over a first-class
// waiter: register a *Wait on the entry, relay a signal to some other
// true-condition waiter, park on the waiter's ready channel, and on
// notification consume the signal and re-check the predicate Mesa-style.
// The blocking Await is thus a thin wrapper around the same waiter object
// the handle API exposes; only the parking differs: on a token instead of
// a close, with a waiter from the monitor's spare list. A context or
// deadline arms the shared give-up path (host.giveUpOn), whose wake
// notifies the waiter; the waiter observes the mark on wake-up — before
// the Mesa re-check, so a give-up wins a race against the predicate
// becoming true — and leaves through the same repair as a cancelled
// handle.
func (m *Monitor) wait(ctx context.Context, deadline time.Time, e *entry, rank int64) error {
	w := m.cm.takeWait()
	w.e = e
	w.rank = rank
	m.cm.register(w)
	canGiveUp := givesUp(ctx, deadline)
	if canGiveUp {
		m.giveUpOn(ctx, deadline, w, func() {
			if !w.notified {
				// A direct notification, not a relay signal: no signal
				// is pending on its account.
				m.cm.notify(w)
			}
		})
	}
	if m.rec != nil {
		// The pre-park relay continues no one's notification: a fresh
		// chain if it signals (stale origins otherwise survive here only
		// when the prior relay found no true waiter, but keep attribution
		// exact regardless).
		m.cm.relayOrigin = 0
	}

	ready := w.ready
	var parked int64 // start stamp of the latest park, for the await span
	for {
		m.cm.relaySignal()
		parked = m.spanStart()
		m.mu.Unlock()
		<-ready
		m.mu.Lock()
		if w.err != nil {
			err := m.giveUp(w)
			m.leave(w)
			m.in = true
			return err
		}
		m.stats.Wakeups++
		m.consumeSignal(w)
		m.stats.PredicateEvals++
		if e.evalFn() {
			break
		}
		m.stats.FutileWakeups++
		if m.rec != nil {
			m.rec.Record(obs.KFutileWake, w.seq, parked)
		}
		m.rearmWaiter(w)
	}
	w.state = waitClaimed
	w.disarm()
	if m.rec != nil {
		m.rec.Record(obs.KClaim, w.seq, parked)
	}
	m.observeWait(w.since, w.seq)
	m.cm.unregister(w)
	m.retireIfIdle(e)
	if !canGiveUp {
		// A give-up trigger that fired may still wait for the monitor to
		// mark w, so only a wait that armed none lends w to the next.
		m.cm.putWait(w)
	}
	m.in = true
	return nil
}

// consumeSignal settles the in-flight-signal accounting when a notified
// waiter proceeds (by wake-up or claim). Runs under the monitor lock.
func (m *Monitor) consumeSignal(w *Wait) {
	if m.rec != nil {
		// The consumer now holds the wake baton: a relay it triggers
		// before re-parking (futile wake, futile claim, abandon) continues
		// this waiter's chain. A consume with no notification in flight
		// continues nothing.
		if w.viaRelay {
			m.cm.relayOrigin = w.seq
		} else {
			m.cm.relayOrigin = 0
		}
	}
	if w.viaRelay {
		w.viaRelay = false
		m.cm.pending--
	}
}

// rearmWaiter returns a still-registered waiter to the signalable pool.
// Only a waiter that consumed a notification re-enters the unnotified
// count and is re-armed (a handle gets a fresh ready channel, a blocking
// waiter keeps its own) — an early Claim re-arms a waiter that was never
// notified, whose registration count and channel still stand. Runs under
// the monitor lock.
func (m *Monitor) rearmWaiter(w *Wait) {
	if w.notified {
		w.e.unnotified++
	}
	w.rearm()
}

// leave unregisters a waiter that gives up — a blocking wait whose
// context was cancelled or whose deadline passed, or a cancelled or
// expired handle — and restores relay invariance. Called with the
// monitor lock held. The waiter is removed from the entry (and the
// entry, if now waiterless, from the predicate table and tag
// structures); a signal that was in flight to it is reconciled; and
// relaySignal runs so the signaling chain moves to the next waiter whose
// predicate holds.
func (m *Monitor) leave(w *Wait) {
	m.consumeSignal(w)
	m.cm.unregister(w)
	m.retireIfIdle(w.e)
	m.cm.relaySignal()
}

// rankFor computes a waiter's policy rank once, at registration time:
// the caller's locals cannot change while it waits (Proposition 1), so a
// rank taken from the binding snapshot stays valid for the wait's whole
// lifetime. binds may be nil (closure predicates carry no named locals).
// The per-entry override, when present, is the policy whose Better will
// compare this waiter within its entry, so its Rank is the one captured.
func (m *Monitor) rankFor(e *entry, binds map[string]int64) int64 {
	pol := e.policy
	if pol == nil {
		pol = m.pol
	}
	if pol == nil {
		return 0
	}
	return pol.Rank(binds)
}

// retireIfIdle parks or discards an entry that no longer has waiters.
func (m *Monitor) retireIfIdle(e *entry) {
	if len(e.waiters) != 0 {
		return
	}
	if e.funcOnly {
		if e.noneIdx >= 0 {
			m.cm.removeNone(e)
		}
		return
	}
	m.cm.deactivate(e)
}

// PendingSignals returns the number of relay signals issued and not yet
// consumed by a woken or claiming waiter — the pending count of the
// relay rule (at most 1 under the single-signal discipline). Protocol
// tests observe it to place a schedule precisely: a waiter holding the
// in-flight signal is exactly the window cancellation repair exists for.
func (m *Monitor) PendingSignals() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cm.pending
}

// Tagging reports whether predicate tagging is enabled (false for the
// AutoSynch-T variant).
func (m *Monitor) Tagging() bool { return m.cfg.tagging }

// DebugCounts returns sizes of the tag structures in use: cached entries
// that are active and that are parked on the inactive list,
// shared-expression groups with an active entry, and None-list length. A
// group named only by parked entries keeps their tag nodes but is not
// counted. Intended for tests and the ablation benchmarks.
func (m *Monitor) DebugCounts() (active, inactive, groups, none int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.cm.groups {
		if g.active() {
			groups++
		}
	}
	return len(m.cm.entries) - m.cm.parked, m.cm.parked, groups, len(m.cm.none)
}

// ---------------------------------------------------------------------------
// Select-composable wait handles.

// ArmFunc registers a closure-predicate waiter without blocking and
// returns its handle; it is the Mechanism-interface form of
// Predicate.Arm. Like AwaitFunc, the closure is evaluated by other
// threads under the monitor lock, so it must only read state guarded by
// this monitor and values that cannot change while the handle is armed;
// closure predicates are opaque to tagging and are scanned exhaustively.
//
// ArmFunc acquires the monitor internally: call it outside Enter/Exit.
func (m *Monitor) ArmFunc(pred func() bool) *Wait {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Arms++
	e := m.funcEntry(pred)
	e.noneIdx = len(m.cm.none)
	m.cm.none = append(m.cm.none, e)
	return m.armEntry(e, m.rankFor(e, nil))
}

// armEntry registers a fresh handle on an entry, delivering an immediate
// notification when the predicate already holds (the non-blocking analog
// of the Await fast path — the claim re-validates anyway). Runs under the
// monitor lock.
func (m *Monitor) armEntry(e *entry, rank int64) *Wait {
	w := newWait(m)
	w.e = e
	w.rank = rank
	m.cm.register(w)
	m.stats.PredicateEvals++
	if e.evalFn() {
		// A free notification: no relay signal is consumed, so other
		// waiters' signaling is unaffected and Claim settles the truth.
		m.cm.notify(w)
	}
	return w
}

// claimLocked re-validates an armed handle's predicate under the monitor
// lock. On success the waiter is unregistered, the handle is spent, and
// the monitor stays HELD for the caller; on failure the handle is
// re-armed and any relay signal it held is passed onward, so relay
// invariance survives the futile claim.
func (m *Monitor) claimLocked(w *Wait) error {
	if w.e == nil {
		// The globalization folded to constant true at arm time: the
		// predicate holds in every state, no entry was registered.
		m.stats.Claims++
		w.state = waitClaimed
		m.in = true
		return nil
	}
	wasRelay := w.viaRelay
	m.consumeSignal(w)
	m.stats.PredicateEvals++
	if w.e.evalFn() {
		m.stats.Claims++
		w.state = waitClaimed
		if m.rec != nil {
			m.rec.Record(obs.KClaim, w.seq, 0)
		}
		m.observeWait(w.since, w.seq)
		m.cm.unregister(w)
		m.retireIfIdle(w.e)
		m.in = true
		return nil
	}
	m.stats.FutileClaims++
	if m.rec != nil {
		m.rec.Record(obs.KFutileClaim, w.seq, 0)
	}
	m.rearmWaiter(w)
	if wasRelay {
		// The falsifying mutation's own exit saw this waiter as signaled
		// and relayed nowhere; now that the orphan is reconciled, move the
		// signaling chain to the next waiter whose predicate holds.
		m.cm.relaySignal()
	}
	return ErrNotReady
}

// cancelLocked unregisters a cancelled handle and restores relay
// invariance, exactly as a blocking wait that gives up does.
func (m *Monitor) cancelLocked(w *Wait) {
	m.statAbandon(w)
	if w.e != nil {
		m.leave(w)
	}
}

// TryFunc is the non-blocking degenerate case of AwaitFunc: it evaluates
// the closure once inside the monitor and reports whether it holds,
// never parking and never arming.
func (m *Monitor) TryFunc(pred func() bool) bool {
	if !m.in {
		panic("autosynch: TryFunc outside the monitor; call Enter first")
	}
	m.stats.PredicateEvals++
	return pred()
}

// TryAwait is the non-blocking degenerate case of Await: it validates and
// snapshots the bindings and reports whether the predicate holds right
// now, never parking. Like Await it must be called inside the monitor.
func (m *Monitor) TryAwait(pred string, binds ...Binding) (bool, error) {
	if !m.in {
		panic("autosynch: TryAwait outside the monitor; call Enter first")
	}
	p, err := m.compile(pred)
	if err != nil {
		return false, err
	}
	return m.tryPred(p, binds)
}

// TryPred is TryAwait for a compiled predicate; see Predicate.Try.
func (m *Monitor) TryPred(p *Predicate, binds ...Binding) (bool, error) {
	if !m.in {
		panic("autosynch: TryPred outside the monitor; call Enter first")
	}
	return m.tryPred(p, binds)
}

// tryPred validates the predicate and bindings and evaluates once.
// Called under the monitor lock.
func (m *Monitor) tryPred(p *Predicate, binds []Binding) (bool, error) {
	if p == nil {
		return false, &PredicateError{Src: "<nil>", Msg: "nil predicate"}
	}
	if p.m != m {
		return false, predErrf(p.src, "predicate was compiled by a different monitor")
	}
	if err := p.setBinds(binds); err != nil {
		return false, err
	}
	m.stats.PredicateEvals++
	return p.fast(), nil
}
