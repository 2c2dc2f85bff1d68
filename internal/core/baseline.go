package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// Baseline is the reference automatic-signal monitor of the paper's
// evaluation (§6.2): one condition variable for the whole monitor, a
// signalAll whenever the state may have changed, and every woken thread
// re-evaluating its own predicate after re-acquiring the lock. It is the
// design whose measured 10–50× slowdowns (Buhr et al.) created the belief
// that automatic-signal monitors are inherently expensive.
//
// Blocking waits deliberately stay on the shared condition variable — the
// broadcast storm they form under contention IS the strawman being
// measured, and it has no per-waiter addressing to reify. Parking on a
// *Wait instead would also make the comparison point dearer than the
// design it stands for (see Explicit for the measurement). Armed handles
// (ArmFunc) ride alongside on a waiter list whose channels every
// broadcast also closes, so the baseline still offers the full Mechanism
// handle surface.
type Baseline struct {
	condHost
	cond  *sync.Cond
	armed waitList // armed handles, notified on every broadcast
}

// NewBaseline constructs a baseline monitor. Of the options, only the
// wait-time accounting ones act here (WithPolicy, WithStarvationThreshold);
// the predicate options have no predicates to act on.
func NewBaseline(opts ...Option) *Baseline {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	b := &Baseline{}
	b.setup(cfg, "baseline")
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Exit broadcasts (the state may have changed) and releases the monitor.
func (b *Baseline) Exit() {
	if !b.in {
		panic("autosynch: Exit without Enter")
	}
	if b.rec != nil {
		b.rec.Record(obs.KExit, 0, 0)
	}
	b.broadcastLocked()
	b.in = false
	b.mu.Unlock()
}

// broadcastLocked is the baseline's signalAll: wake every parked waiter
// and notify every armed handle.
func (b *Baseline) broadcastLocked() { b.broadcast(b.cond, &b.armed) }

// Do runs f inside the monitor.
func (b *Baseline) Do(f func()) {
	b.Enter()
	defer b.Exit()
	f()
}

// Await blocks until pred() is true. pred must read only monitor-guarded
// state and the caller's locals. Before each wait the monitor broadcasts,
// because the caller may have changed the state since entering.
func (b *Baseline) Await(pred func() bool) {
	_ = b.await(nil, time.Time{}, pred)
}

// AwaitCtx is Await with cancellation: if ctx is done before the
// predicate becomes true the waiter gives up and returns ctx.Err(), still
// holding the monitor (the baseline's broadcast discipline needs no
// further repair — every state change wakes every waiter anyway).
func (b *Baseline) AwaitCtx(ctx context.Context, pred func() bool) error {
	return b.await(ctx, time.Time{}, pred)
}

// AwaitFunc and AwaitFuncCtx adapt Await to the Mechanism interface.
func (b *Baseline) AwaitFunc(pred func() bool) { _ = b.await(nil, time.Time{}, pred) }

// AwaitFuncCtx is AwaitCtx under the Mechanism interface's name.
func (b *Baseline) AwaitFuncCtx(ctx context.Context, pred func() bool) error {
	return b.await(ctx, time.Time{}, pred)
}

// AwaitFuncDeadline is AwaitFunc with an absolute deadline: if the
// predicate has not become true by then the waiter gives up and returns
// ErrDeadline, still holding the monitor. The expiry is a runtime timer
// (time.AfterFunc), which holds no goroutine while it is pending, and,
// like cancellation, wins a race against the predicate once observed.
func (b *Baseline) AwaitFuncDeadline(deadline time.Time, pred func() bool) error {
	return b.await(nil, deadline, pred)
}

// AwaitFuncTimeout is AwaitFuncDeadline with a relative duration.
func (b *Baseline) AwaitFuncTimeout(d time.Duration, pred func() bool) error {
	return b.await(nil, time.Now().Add(d), pred)
}

func (b *Baseline) await(ctx context.Context, deadline time.Time, pred func() bool) error {
	return b.condWait(ctx, deadline, "Await", b.cond, pred, b.broadcastLocked)
}

// ArmFunc registers a closure-predicate waiter without blocking and
// returns its handle: every broadcast (that is, every monitor exit)
// notifies it, and Claim re-validates the closure under the lock. See
// Wait for the select-composition contract. ArmFunc acquires the monitor
// internally: call it outside Enter/Exit.
func (b *Baseline) ArmFunc(pred func() bool) *Wait {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.armOn(&b.armed, pred)
}
