package core

import (
	"context"
	"time"

	"repro/internal/stats"
)

// Mechanism is the driving surface shared by the three monitor types —
// Monitor (and its AutoSynch-T variant), Baseline, and Explicit — so
// harnesses, benchmarks, and tests can run one workload against every
// mechanism through a single interface instead of per-mechanism adapter
// code.
//
// The closure wait is the portable common denominator: every mechanism
// can park a waiter on an opaque predicate and re-check it on wake-up —
// blocking (AwaitFunc), non-blocking (TryFunc), or as a first-class armed
// handle (ArmFunc) whose notification arrives on a channel. How
// notifications happen stays mechanism-specific — Monitor relays a signal
// exactly when the predicate is true, Baseline broadcasts on every exit,
// and Explicit wakes its generic waiters on any manual signal. Monitor's
// string and compiled-predicate waits (Await/AwaitPred/Predicate.Arm)
// remain on the concrete type: they are what the other mechanisms, by
// design, cannot offer.
type Mechanism interface {
	// Enter acquires the monitor and Exit releases it (relaying or
	// broadcasting per the mechanism's discipline); Do wraps both.
	Enter()
	Exit()
	Do(f func())

	// AwaitFunc blocks inside the monitor until pred() holds; the ctx
	// variant additionally abandons the wait and returns ctx.Err() when
	// the context is done, still holding the monitor.
	AwaitFunc(pred func() bool)
	AwaitFuncCtx(ctx context.Context, pred func() bool) error

	// AwaitFuncDeadline and AwaitFuncTimeout are the timer-shaped peers
	// of AwaitFuncCtx: if the predicate has not become true by the
	// deadline, the wait is abandoned with ErrDeadline, still holding
	// the monitor. An expiry is a runtime timer (time.AfterFunc), not a
	// context and goroutine per wait, and an observed expiry wins a race
	// against the predicate becoming true, exactly like cancellation.
	AwaitFuncDeadline(deadline time.Time, pred func() bool) error
	AwaitFuncTimeout(d time.Duration, pred func() bool) error

	// ArmFunc registers a waiter without blocking and returns its
	// first-class handle: select on Ready, then Claim (re-validating
	// Mesa-style) or Cancel. Called outside the monitor — it locks
	// internally. TryFunc is the non-blocking degenerate case: one
	// in-monitor evaluation, no parking, no arming.
	ArmFunc(pred func() bool) *Wait
	TryFunc(pred func() bool) bool

	// WhenFunc returns the guarded region on a closure predicate: the
	// conditional critical section as one unit. Guard.Do atomically
	// enters, awaits the predicate, runs the body, and exits with a
	// panic-safe unlock; guards on different monitors and mechanisms
	// compose with Select. Monitor additionally offers When for compiled
	// predicates (and Cond.When targets one explicit condition).
	WhenFunc(pred func() bool) *Guard

	// Stats/ResetStats expose the shared instrumentation; Waiting reports
	// the registered-waiter count (parked waits plus armed handles) that
	// tests poll instead of sleeping, and assert zero for leak checks.
	Stats() Stats
	ResetStats()
	Waiting() int

	// WaitLatency returns a copy of the mechanism's wake-to-claim latency
	// histogram — the registration-to-completion duration of every wait
	// that actually parked or armed (fast-path awaits are excluded) — or
	// nil if no wait has completed. The histogram is allocated lazily on
	// the first completed wait, so mechanisms that never park report nil
	// at zero cost.
	WaitLatency() *stats.Histogram
}

// The three mechanisms implement the interface, and each doubles as the
// host of its own handles.
var (
	_ Mechanism = (*Monitor)(nil)
	_ Mechanism = (*Baseline)(nil)
	_ Mechanism = (*Explicit)(nil)

	_ waitHost = (*Monitor)(nil)
	_ waitHost = (*Baseline)(nil)
	_ waitHost = (*Explicit)(nil)
)
