package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// Explicit is the instrumented explicit-signal monitor: a mutex with
// programmer-managed condition variables, the java.util.concurrent
// Lock/Condition analog used as the principal comparison point in the
// paper's evaluation. The programmer associates predicates with conditions
// and must signal the right condition at the right time — exactly the
// burden (and bug source) AutoSynch removes.
//
// Blocking waits park on each condition's sync.Cond exactly as the
// comparison point demands; armed handles (Cond.Arm, ArmFunc) ride
// alongside on per-condition waiter lists whose channels Signal and
// Broadcast also notify, so explicit monitors offer the full Mechanism
// handle surface without perturbing the measured signaling discipline.
// The blocking waits stay on sync.Cond because parking them on a *Wait
// makes the comparison point dearer than the design it stands for. On
// the benchmark's pbuf-explicit workload (bench/, one core of a 2-vCPU
// Intel Xeon), *Wait prototypes measured 1.03M ops/s with a fresh waiter
// and channel per park (3.5 allocs/op), a median 1.30M with recycled
// waiters, and 1.52M with a reusable channel (+25% live heap), against a
// median 1.69M on sync.Cond.
type Explicit struct {
	condHost

	// any is the condition behind the Mechanism-interface AwaitFunc and
	// ArmFunc: a generic waiter with no condition variable of its own
	// parks here and is woken whenever the program signals or broadcasts
	// any of the monitor's conditions. anyWaiters and the armed list's
	// emptiness gate the extra broadcast so signal-heavy workloads that
	// never use the generic forms pay nothing.
	any        *sync.Cond
	anyWaiters int
	anyArmed   waitList
}

// NewExplicit constructs an explicit-signal monitor.
func NewExplicit(opts ...Option) *Explicit {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	e := &Explicit{}
	e.setup(cfg, "explicit")
	e.any = sync.NewCond(&e.mu)
	return e
}

// Exit releases the monitor. No signaling happens implicitly.
func (e *Explicit) Exit() {
	if !e.in {
		panic("autosynch: Exit without Enter")
	}
	if e.rec != nil {
		e.rec.Record(obs.KExit, 0, 0)
	}
	e.in = false
	e.mu.Unlock()
}

// Do runs f inside the monitor.
func (e *Explicit) Do(f func()) {
	e.Enter()
	defer e.Exit()
	f()
}

// notifyAny wakes the generic AwaitFunc/ArmFunc waiters after a manual
// signal.
func (e *Explicit) notifyAny() {
	if e.anyWaiters > 0 {
		e.any.Broadcast()
	}
	e.anyArmed.broadcast()
}

// AwaitFunc blocks until pred() holds, waking whenever the program signals
// or broadcasts any condition of this monitor. It is the explicit
// monitor's implementation of the Mechanism interface: generic drivers can
// wait without owning a condition variable, while the program's own
// signaling discipline stays manual. A waiter starves if nothing is ever
// signaled — use NewCond and precise signals in real explicit-monitor
// code.
func (e *Explicit) AwaitFunc(pred func() bool) {
	_ = e.awaitAny(nil, time.Time{}, pred)
}

// AwaitFuncCtx is AwaitFunc with cancellation; on a done context the
// waiter returns ctx.Err() still holding the monitor.
func (e *Explicit) AwaitFuncCtx(ctx context.Context, pred func() bool) error {
	return e.awaitAny(ctx, time.Time{}, pred)
}

// AwaitFuncDeadline is AwaitFunc with an absolute deadline: if the
// predicate has not become true by then the waiter gives up and returns
// ErrDeadline, still holding the monitor. The expiry broadcast wakes the
// condition's other waiters too, which re-check and re-park as after any
// broadcast; like cancellation, an observed expiry wins a race against
// the predicate becoming true.
func (e *Explicit) AwaitFuncDeadline(deadline time.Time, pred func() bool) error {
	return e.awaitAny(nil, deadline, pred)
}

// AwaitFuncTimeout is AwaitFuncDeadline with a relative duration.
func (e *Explicit) AwaitFuncTimeout(d time.Duration, pred func() bool) error {
	return e.awaitAny(nil, time.Now().Add(d), pred)
}

func (e *Explicit) awaitAny(ctx context.Context, deadline time.Time, pred func() bool) error {
	e.anyWaiters++
	err := e.condWait(ctx, deadline, "AwaitFunc", e.any, pred, nil)
	e.anyWaiters--
	return err
}

// ArmFunc registers a generic any-signal waiter without blocking and
// returns its handle: any manual Signal or Broadcast on any of the
// monitor's conditions notifies it, and Claim re-validates the closure
// under the lock. See Wait for the select-composition contract. ArmFunc
// acquires the monitor internally: call it outside Enter/Exit.
func (e *Explicit) ArmFunc(pred func() bool) *Wait {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.armOn(&e.anyArmed, pred)
}

// Cond is an explicit condition variable bound to its monitor's lock.
type Cond struct {
	m     *Explicit
	cond  *sync.Cond
	armed waitList // armed handles routed to this condition
}

// NewCond creates a condition variable on the monitor.
func (e *Explicit) NewCond() *Cond {
	return &Cond{m: e, cond: sync.NewCond(&e.mu)}
}

// Await blocks until pred() holds, re-checking after every wake-up — the
// standard while-loop idiom around Condition.await.
func (c *Cond) Await(pred func() bool) {
	_ = c.await(nil, time.Time{}, pred)
}

// AwaitCtx is Await with cancellation: a waiter whose context is done
// gives up its spot on the condition and returns ctx.Err(), still holding
// the monitor. The cancellation wakes the condition's other waiters too;
// they re-check their predicates and park again, as after any broadcast.
func (c *Cond) AwaitCtx(ctx context.Context, pred func() bool) error {
	return c.await(ctx, time.Time{}, pred)
}

// AwaitDeadline is Await with an absolute deadline; see
// Explicit.AwaitFuncDeadline for the expiry semantics.
func (c *Cond) AwaitDeadline(deadline time.Time, pred func() bool) error {
	return c.await(nil, deadline, pred)
}

// AwaitTimeout is AwaitDeadline with a relative duration.
func (c *Cond) AwaitTimeout(d time.Duration, pred func() bool) error {
	return c.await(nil, time.Now().Add(d), pred)
}

func (c *Cond) await(ctx context.Context, deadline time.Time, pred func() bool) error {
	return c.m.condWait(ctx, deadline, "Cond.Await", c.cond, pred, nil)
}

// Arm registers a waiter on this condition without blocking and returns
// its handle: Signal and Broadcast on this condition notify it, and Claim
// re-validates the closure under the lock — the handle analog of the
// while-loop around Condition.await. Arm acquires the monitor internally:
// call it outside Enter/Exit.
func (c *Cond) Arm(pred func() bool) *Wait {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	return c.m.armOn(&c.armed, pred)
}

// Signal wakes one thread waiting on the condition. A signal reaches both
// waiter populations: one parked goroutine (if any) and one armed handle
// — the handle re-validates at claim time, so the at-most-one-consumer
// contract of the underlying state is preserved by the predicates
// themselves, as everywhere in an explicit monitor. A handle that is
// cancelled or expires before it claims passes the signal on to the next
// unnotified handle of the condition, so Select's loser cancellation
// loses no signal.
func (c *Cond) Signal() {
	c.m.stats.Signals++
	c.cond.Signal()
	picked := c.armed.signalOne(c.m.pol)
	if picked != nil && c.m.pol != nil {
		c.m.stats.PolicyWakes++
	}
	if r := c.m.rec; r != nil {
		// Explicit monitors have no relay: every Signal roots its own
		// chain (origin 0), which only a handle passing the signal on
		// continues (condHost.cancelLocked); the seq is the picked armed
		// handle's, or 0 when only a parked (seq-less) goroutine can
		// answer.
		var seq uint64
		if picked != nil {
			seq = picked.seq
		}
		r.Record(obs.KSignal, seq, 0)
		if picked != nil && c.m.pol != nil {
			r.Record(obs.KPolicyWake, picked.seq, picked.rank)
		}
	}
	c.m.notifyAny()
}

// Broadcast wakes every thread waiting on the condition (signalAll).
func (c *Cond) Broadcast() {
	c.m.broadcast(c.cond, &c.armed)
	c.m.notifyAny()
}
