// Package autosynch is a Go implementation of AutoSynch, the
// automatic-signal monitor of Hung & Garg, "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (PLDI 2013).
//
// A Monitor provides mutual exclusion plus conditional synchronization
// without condition variables: instead of declaring conditions and calling
// signal/signalAll, a thread states the predicate it is waiting for and
// the runtime signals the right thread at the right time.
//
// # Compiled predicates
//
// Predicates are compiled once, ahead of the wait path, and waited on any
// number of times. Compile turns a predicate string into a *Predicate —
// parsing, type inference, DNF canonicalization, and tag-template
// derivation all happen at compile time — and each wait then only
// validates and snapshots the thread-local bindings:
//
//	m := autosynch.New()
//	count := m.NewInt("count", 0)
//	capacity := m.NewInt("cap", 64)
//	_ = capacity
//
//	hasRoom := m.MustCompile("count < cap")
//	hasItems := m.MustCompile("count >= num")
//
//	// producer
//	m.Enter()
//	hasRoom.Await()
//	count.Add(1)
//	m.Exit()
//
//	// consumer taking num items (a complex predicate with a local)
//	m.Enter()
//	hasItems.Await(autosynch.Bind("num", num))
//	count.Add(-num)
//	m.Exit()
//
// The typed builder constructs the same compiled predicates without
// strings — count.AtLeast(Local("num")) is "count >= num" — and lowers to
// the identical IR, sharing the predicate cache:
//
//	hasItems := m.MustCompileExpr(count.AtLeast(autosynch.Local("num")))
//	hasRoom := m.MustCompileExpr(
//		autosynch.Or(count.Expr().Plus(autosynch.Local("k")).AtMost(capacity.Expr()),
//			stop.IsTrue()))
//
// The string form Monitor.Await("count >= num", Bind("num", n)) remains as
// convenience sugar: it consults the same predicate cache (compiling on
// first use), so it costs one cache lookup per wait where AwaitPred costs
// none.
//
// # Generated predicate evaluators (minisynchc)
//
// Compiled predicates normally evaluate through a closure tree built by
// the expression compiler. The minisynchc compiler removes that last
// layer of interpretation: it emits, per predicate, a monomorphic Go
// evaluator that reads the monitor's cells directly (plus key functions
// matching the predicate's tag template) and registers both in a
// process-global registry via RegisterGenerated. Add a go:generate
// directive next to a predicate manifest listing each monitor's shared
// variables and predicate sources:
//
//	//go:generate go run repro/cmd/minisynchc -manifest -pkg mypkg -o zz_generated_preds.go preds.manifest
//
// (or run minisynchc -emit preds over a MiniSynch source file). Linking
// the generated file is all it takes: Compile and CompileExpr consult the
// registry, and any predicate whose canonical source, shared-variable
// types, and local-variable types match a registration is transparently
// served by the generated evaluator — same DNF analysis, same tag
// template, same entry identities, so signaling behavior is unchanged and
// only evaluation gets cheaper. Anything without a matching registration
// (or on a monitor constructed with WithoutGenerated) falls back to the
// closure path. Stats reports which path served: GenPreds counts
// predicates bound to generated code, GenMisses counts fallbacks, and
// GenEntries counts waiting-condition entries whose evaluation ran
// generated. The differential tests in internal/codegen and
// internal/problems pin generated ≡ interpreted (result and tags) over
// the whole scenario registry plus a fuzzed predicate corpus, and the CI
// drift gate regenerates every zz_generated file and fails on diff.
//
// # Select-composable wait handles
//
// Every blocking wait parks its goroutine, so a server multiplexing many
// resources would pay one goroutine per armed predicate. The handle API
// removes that cost: Predicate.Arm (and the per-mechanism ArmFunc)
// registers the waiter without blocking and returns a first-class *Wait
// whose Ready channel is closed when relay signaling finds the predicate
// true. One goroutine can therefore drive any number of armed waits with
// select:
//
//	wa, wb := notEmptyA.Arm(), notEmptyB.Arm()
//	for {
//		select {
//		case <-wa.Ready():
//			if err := wa.Claim(); err == nil { // monitor held, predicate true
//				takeA()
//				ma.Exit()
//				wa = notEmptyA.Arm()
//			} // ErrNotReady: falsified by a race; wa was re-armed
//		case <-wb.Ready():
//			...
//		}
//	}
//
// Claim re-enters the monitor and re-validates the predicate Mesa-style;
// if a racing mutation falsified it the handle is transparently re-armed
// (fresh Ready channel) and Claim returns ErrNotReady. Cancel abandons
// the registration with the same relay-invariance repair as a context
// cancellation. TryAwait/TryPred/TryFunc are the non-blocking degenerate
// case — one in-monitor evaluation, no parking, no arming — and the
// blocking waits themselves are thin wrappers that register the same
// waiter object and park on its channel. Arms, Claims, and FutileClaims
// are accounted in Stats uniformly across all three mechanisms.
//
// # Guarded regions and selective waiting
//
// The unit of the paper's API is the conditional critical region — enter,
// waituntil(P), mutate, exit — and When reifies it as a first-class
// value. A Guard packages the predicate (with its bindings snapshotted)
// and the monitor; Do runs the whole region atomically with a panic-safe
// unlock, DoCtx adds cancellation, Try is the non-blocking form:
//
//	hasItems := m.MustCompile("count >= num")
//	take := m.When(hasItems, autosynch.Bind("num", 3))
//	if err := take.Do(func() { count.Add(-3) }); err != nil { ... }
//
// Guards are reusable, valid on every mechanism (WhenFunc on a closure
// predicate for Baseline and Explicit, Cond.When for one explicit
// condition, keyed When/WhenFunc on a Sharded monitor), and — the point —
// they compose. Select waits on any number of guards spanning arbitrary
// monitors and mechanisms, parks the goroutine once, claims the first
// predicate to become true (re-validating Mesa-style and transparently
// re-arming if a racing mutation falsified it), cancels the losers with
// no leaked waiters, and runs the winning case's body under that guard's
// monitor:
//
//	idx, err := autosynch.Select(
//		notEmptyA.When().Then(func() { drainA() }),
//		notEmptyB.When().Then(func() { drainB() }),
//	)
//
// The initial poll starts at a random case for fairness; SelectOrdered
// makes the case order a priority order instead, and a Default case makes
// the whole Select non-blocking, exactly like a select statement's
// default. Guard construction errors (bad bindings, ErrNeverTrue) are
// surfaced from Guard.Err and from Select before anything parks. See the
// `dispatcher` and `selective-server` scenarios and BenchmarkSelect.
//
// # Cancellation
//
// Every wait has a context-aware variant: Monitor.AwaitCtx/AwaitPredCtx/
// AwaitFuncCtx, Predicate.AwaitCtx, Baseline.AwaitCtx, and Cond.AwaitCtx
// return ctx.Err() when the context is done before the predicate becomes
// true. A cancelled waiter returns holding the monitor — the usual
// Enter/defer-Exit pairing stays valid — and is fully unregistered from
// the predicate table and tag structures. Relay invariance survives the
// abandonment: a signal that was in flight to the abandoned waiter is
// reconciled and relayed onward, so the next waiter whose predicate holds
// is signaled and no wake-up is lost. Cancellation takes priority once
// observed; a waiter may still return nil if its predicate became true
// before the cancellation was delivered. A context wait costs no watcher
// goroutine on any mechanism: the give-up is registered with
// context.AfterFunc, which runs nothing until the context is done, and
// then wakes the one parked waiter.
//
// # Deadlines
//
// Every wait also has a deadline-shaped variant, the timer peer of the
// context forms: Monitor.AwaitDeadline/AwaitTimeout (and the
// AwaitPredDeadline / AwaitFuncDeadline / AwaitFuncTimeout spellings on
// every mechanism), Predicate.AwaitDeadline, Cond.AwaitDeadline, and
// Wait.Deadline/Timeout on an armed handle. If the predicate has not
// become true by the deadline the wait returns ErrDeadline — holding the
// monitor, fully unregistered, with the same relay-invariance repair as
// cancellation; an expiry observed on wake-up likewise takes priority
// even if the predicate just became true. A context and a deadline give
// up through one path: the trigger marks the waiter with its error and
// wakes it, and the waiter unwinds before its Mesa re-check. Neither
// costs a goroutine per wait. Use a deadline when the give-up time is
// known in advance ("acquire a connection within 50ms"): it needs no
// context, and it is a Go runtime timer (time.AfterFunc), so a pending
// deadline holds no goroutine and never expires early. Use AwaitCtx when
// cancellation is driven by an external event or an inherited request
// context.
//
// # Wake policies and starvation accounting
//
// When several waiters are eligible at once, the runtime normally wakes
// the first one the tag-pruned relay search happens to visit — cheapest,
// but unspecified. WithPolicy makes the choice explicit: FIFO wakes the
// longest-registered eligible waiter (bounded bypass, predictable tail
// latency), LIFO the newest (deepest cache affinity, unbounded bypass),
// and Priority(rank) the highest-ranked, computing each waiter's rank
// from its binding snapshot at registration time (sound because locals
// cannot change while a thread waits — Proposition 1). A policy-governed
// relay runs the same tag-pruned search as one without a policy, but
// compares every eligible waiter it reaches instead of stopping at the
// first, so it costs more the more waiters are eligible at once; leave
// the policy nil where throughput matters more than wake order.
// Predicate.UsePolicy overrides the pick among that predicate's own
// waiters. Fairness becomes measurable alongside: Stats.MaxWaitNs tracks
// the longest completed wait, WithStarvationThreshold makes Stats.Starved
// count completions that waited longer than the threshold, and
// Stats.PolicyWakes counts signals whose target a policy chose — under a
// priority storm, FIFO shows bounded MaxWaitNs while Priority shows
// nonzero Starved, which is exactly the trade the policy names.
//
// # Mechanisms
//
// Three mechanisms from the paper make automatic signaling efficient:
//
//   - Globalization (§4.1): local variables are bound at the moment Await
//     starts, turning a complex predicate into a shared one that any thread
//     can evaluate on the waiter's behalf — a thread is only woken when its
//     predicate is actually true.
//   - Relay invariance (§4.2): whenever a thread exits the monitor or goes
//     to sleep, it signals one waiter whose predicate has become true, so
//     signalAll is never needed.
//   - Predicate tagging (§4.3): waiting predicates are indexed by
//     equivalence tags (hash tables) and threshold tags (min/max heaps) on
//     canonical shared expressions, so the waiter to relay to is found
//     without scanning every predicate.
//
// # Sharding
//
// One Monitor is one lock and one condition manager. The relay search on
// an exit visits only the waiting conditions that read a cell the exit's
// critical section wrote (tagging prunes within each), but every
// operation serializes on the one lock.
// When state and waiters partition by key, a Sharded monitor (NewSharded)
// splits them across S inner Monitors: keyed operations on different
// shards run concurrently, all the guarantees above hold per shard, and
// genuinely cross-shard conditions ("total free across all shards ≥ n")
// are expressed with an AggregateCounter, whose per-shard deltas batch
// under the shard lock and publish to a summary monitor where the bound
// is an ordinary threshold-tagged predicate. See internal/shard and the
// sharding section of EXPERIMENTS.md (scale-shards) for the protocol and
// the measured scaling.
//
// The package also exports the paper's comparison mechanisms — Baseline
// (one condition variable + signalAll) and Explicit (instrumented manual
// condition variables) — and the AutoSynch-T variant (WithoutTagging), so
// the evaluation experiments can be reproduced; see EXPERIMENTS.md. All
// three monitor types implement the Mechanism interface, letting harnesses
// and benchmarks drive any of them through one surface.
package autosynch

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
)

// Monitor is an automatic-signal monitor; see the package documentation.
type Monitor = core.Monitor

// Predicate is a compiled waiting condition produced by Monitor.Compile or
// Monitor.CompileExpr: analysis is paid once, waits only bind and enqueue.
type Predicate = core.Predicate

// PredicateError is the uniform error type for malformed predicates and
// binding mismatches, from both compile time and wait time; use errors.As
// to inspect it and errors.Is(err, ErrNeverTrue) for unsatisfiable waits.
type PredicateError = core.PredicateError

// Mechanism is the driving surface shared by Monitor, Baseline, and
// Explicit: Enter/Exit/Do, closure waits with and without a context, and
// the Stats/Waiting instrumentation.
type Mechanism = core.Mechanism

// Baseline is the single-condition signalAll automatic monitor used as the
// reference point in the paper's evaluation (§6.2).
type Baseline = core.Baseline

// Explicit is the instrumented explicit-signal monitor (mutex + manually
// signaled condition variables).
type Explicit = core.Explicit

// Cond is an explicit condition variable created by Explicit.NewCond.
type Cond = core.Cond

// IntCell is a shared integer monitor variable. Its comparison methods
// (AtLeast, LessThan, …) build typed predicates over it.
type IntCell = core.IntCell

// BoolCell is a shared boolean monitor variable.
type BoolCell = core.BoolCell

// IntExpr is an integer-valued subexpression of a typed predicate.
type IntExpr = core.IntExpr

// BoolExpr is a boolean-valued typed predicate expression, compiled with
// Monitor.CompileExpr.
type BoolExpr = core.BoolExpr

// Wait is a first-class armed waiter: Ready delivers the notification on
// a channel, Claim re-enters the monitor and re-validates the predicate,
// Cancel abandons the registration. Produced by Predicate.Arm, Cond.Arm,
// and the ArmFunc of every mechanism.
type Wait = core.Wait

// Guard is a guarded region — the conditional critical region as a
// first-class value: Do/DoCtx/Try atomically enter, await the predicate,
// run the body, and exit with a panic-safe unlock. Produced by
// Monitor.When, Predicate.When, Cond.When, the WhenFunc of every
// mechanism, and the keyed When/WhenFunc of a Sharded monitor; guards
// compose across monitors and mechanisms with Select.
type Guard = core.Guard

// Case pairs a guard with the body to run if it wins a Select; build
// cases with Guard.Then and Default.
type Case = core.Case

// Binding supplies one thread-local variable value to a wait.
type Binding = core.Binding

// Stats is the instrumentation snapshot shared by all mechanisms.
type Stats = core.Stats

// Option configures New, NewBaseline, or NewExplicit.
type Option = core.Option

// GeneratedPred is a generated predicate evaluator registered by
// minisynchc-emitted files; see RegisterGenerated.
type GeneratedPred = core.GeneratedPred

// GenVar names one typed variable of a generated predicate.
type GenVar = core.GenVar

// GenCells is the resolved shared-cell view passed to generated
// evaluators.
type GenCells = core.GenCells

// GenEval is a generated whole-predicate evaluator.
type GenEval = core.GenEval

// GenKeyFn is a generated tag-key computation over the local bindings.
type GenKeyFn = core.GenKeyFn

// ErrNeverTrue is the sentinel reported (inside a *PredicateError) when
// the globalized predicate is constant false (waiting would deadlock).
var ErrNeverTrue = core.ErrNeverTrue

// ErrNotReady is returned by Wait.Claim when a racing mutation falsified
// the predicate; the handle has been re-armed with a fresh Ready channel.
var ErrNotReady = core.ErrNotReady

// ErrClaimed is returned by Wait.Claim on an already-claimed handle.
var ErrClaimed = core.ErrClaimed

// ErrCancelled is reported by Wait.Err and Wait.Claim after Wait.Cancel.
var ErrCancelled = core.ErrCancelled

// ErrDeadline is returned by the deadline-aware waits (AwaitDeadline,
// AwaitTimeout, AwaitFuncDeadline, …) and reported by an armed handle
// whose Wait.Deadline passed before it was claimed.
var ErrDeadline = core.ErrDeadline

// ErrNoCases is returned by Select when no guard case was supplied.
var ErrNoCases = core.ErrNoCases

// ErrNilGuard reports a Select case whose guard is nil.
var ErrNilGuard = core.ErrNilGuard

// ErrManyDefaults reports a Select with more than one Default case.
var ErrManyDefaults = core.ErrManyDefaults

// Select waits until the first of the cases' guard predicates becomes
// true and runs that case's body inside its guard's monitor, returning
// the winning index. The guards may span arbitrary monitors and
// mechanisms; the goroutine parks once (no goroutine per guard), claims
// Mesa-style with transparent re-arming, and cancels the losers with no
// leaked waiters. See the package documentation and core.Select.
func Select(cases ...Case) (int, error) { return core.Select(cases...) }

// SelectCtx is Select with cancellation: when ctx is done first, every
// armed guard is cancelled and SelectCtx returns ctx.Err() with index -1.
func SelectCtx(ctx context.Context, cases ...Case) (int, error) {
	return core.SelectCtx(ctx, cases...)
}

// SelectOrdered is Select with the case order as a priority order among
// simultaneously ready guards (the initial poll and arming prefer
// earlier cases); once parked, the first predicate to become true wins.
func SelectOrdered(cases ...Case) (int, error) { return core.SelectOrdered(cases...) }

// Default makes a Select non-blocking: if no guard is immediately true,
// the default body runs outside any monitor and Select returns its index.
func Default(body func()) Case { return core.Default(body) }

// New constructs an automatic-signal monitor (the full AutoSynch
// mechanism; use WithoutTagging for the AutoSynch-T variant).
func New(opts ...Option) *Monitor { return core.New(opts...) }

// NewBaseline constructs the signalAll reference monitor.
func NewBaseline(opts ...Option) *Baseline { return core.NewBaseline(opts...) }

// NewExplicit constructs an explicit-signal monitor.
func NewExplicit(opts ...Option) *Explicit { return core.NewExplicit(opts...) }

// Bind binds a local integer variable for the duration of a wait.
func Bind(name string, v int64) Binding { return core.BindInt(name, v) }

// BindBool binds a local boolean variable for the duration of a wait.
func BindBool(name string, v bool) Binding { return core.BindBool(name, v) }

// Lit is an integer literal in a typed predicate.
func Lit(v int64) IntExpr { return core.Lit(v) }

// Local references a thread-local integer variable in a typed predicate;
// supply its value with Bind on every wait.
func Local(name string) IntExpr { return core.Local(name) }

// LocalBool references a thread-local boolean variable in a typed
// predicate; supply its value with BindBool on every wait.
func LocalBool(name string) BoolExpr { return core.LocalBool(name) }

// And, Or, and Not combine typed predicates.
func And(ps ...BoolExpr) BoolExpr { return core.And(ps...) }

// Or is the disjunction of typed predicates.
func Or(ps ...BoolExpr) BoolExpr { return core.Or(ps...) }

// Not negates a typed predicate.
func Not(p BoolExpr) BoolExpr { return core.Not(p) }

// RegisterGenerated installs a generated predicate evaluator in the
// process-global registry; monitors compiled afterwards dispatch to it
// whenever source and variable types match. Called from init() of
// zz_generated_preds.go files emitted by `//go:generate minisynchc`.
func RegisterGenerated(g GeneratedPred) { core.RegisterGenerated(g) }

// GeneratedCount reports how many generated predicates are registered.
func GeneratedCount() int { return core.GeneratedCount() }

// GenDiv is the generated-code division helper: division by zero
// evaluates to 0 ("not yet true"), matching compiled predicates.
func GenDiv(a, b int64) int64 { return core.GenDiv(a, b) }

// GenMod is the generated-code modulus helper; see GenDiv.
func GenMod(a, b int64) int64 { return core.GenMod(a, b) }

// WithoutTagging disables predicate tagging (the AutoSynch-T mechanism).
func WithoutTagging() Option { return core.WithoutTagging() }

// WithoutGenerated disables generated-evaluator dispatch for one monitor;
// the closure-compiled path serves even when a registration matches.
func WithoutGenerated() Option { return core.WithoutGenerated() }

// WithInactiveLimit bounds the inactive predicate cache (§5.2).
func WithInactiveLimit(n int) Option { return core.WithInactiveLimit(n) }

// Policy is a pluggable wake policy: when several waiters are eligible,
// it decides which one a signal picks. See the package documentation
// ("Wake policies and starvation accounting") for the trade-offs.
type Policy = policy.Policy

// FIFO wakes the longest-registered eligible waiter (bounded bypass).
var FIFO = policy.FIFO

// LIFO wakes the most recently registered eligible waiter.
var LIFO = policy.LIFO

// Priority builds a policy that wakes the highest-ranked eligible
// waiter, computing each waiter's rank from its binding snapshot (by
// local-variable name) at registration time; ties break FIFO.
func Priority(rank func(binds map[string]int64) int64) Policy { return policy.Priority(rank) }

// WithPolicy selects the monitor's wake policy; nil (the default) keeps
// the unspecified first-found pick of the plain relay search.
func WithPolicy(p Policy) Option { return core.WithPolicy(p) }

// WithStarvationThreshold makes Stats.Starved count completed waits that
// waited longer than d; zero disables the counter (Stats.MaxWaitNs is
// tracked regardless).
func WithStarvationThreshold(d time.Duration) Option { return core.WithStarvationThreshold(d) }
