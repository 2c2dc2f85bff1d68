// Package core implements the AutoSynch runtime: the condition manager, the
// relay-signaling rule, predicate registration with tagging, and the four
// monitor mechanisms compared in the paper's evaluation (§6.2):
//
//   - Monitor (AutoSynch): automatic signaling with globalization, relay
//     invariance, and predicate tagging — the paper's contribution.
//   - Monitor with WithoutTagging (AutoSynch-T): identical, but the search
//     for a true waiter scans every registered predicate linearly.
//   - Baseline: a single condition variable; every state change broadcasts
//     (signalAll) and each woken thread re-evaluates its own predicate.
//   - Explicit: an instrumented mutex + condition-variable monitor, the
//     java.util.concurrent analog, where the programmer signals manually.
//
// All four share the Stats instrumentation so experiments can compare
// signals, wake-ups, and futile wake-ups (the context-switch proxy of
// Fig. 15) on equal footing.
//
// Waiters are first-class: a *Wait handle (Predicate.Arm, Cond.Arm, or
// any mechanism's ArmFunc) registers with the condition manager exactly
// like a blocking wait but delivers its notification by closing a
// channel, so one goroutine can multiplex any number of armed waits with
// select. In the automatic monitor the blocking waits are thin wrappers
// over the same waiter objects, reused across waits and woken by a token
// on their channel — relay signaling, tag structures, and cancellation
// all operate on them; the comparison mechanisms keep their native
// condition-variable parking (that parking IS what they measure) and run
// the handle lists alongside.
//
// Guarded regions are first-class too: When (on a compiled predicate, a
// closure, or an explicit condition) returns a *Guard whose Do/DoCtx/Try
// run the whole enter-waituntil-mutate-exit unit atomically with a
// panic-safe unlock, and Select waits on any number of guards across
// monitors and mechanisms — parking once on a shared delivery channel,
// claiming the first true predicate Mesa-style, and cancelling the
// losers with the usual relay repair, so no wake-up and no waiter leaks.
//
// # When to shard
//
// One Monitor is one lock and one condition manager: every entry and
// exit serializes. The relay search on an exit visits only the
// shared-expression groups with waiters that read a cell written since a
// search last found nothing in them, and predicate tagging makes the
// search within a group O(1)-ish, so a monitor carrying N independent
// waiting conditions (per-key watchers, per-session completion waits)
// pays per exit for the conditions its writes touched, not for all N. A
// write to a cell that many groups read (a shared stop flag, say) still
// visits each of them. What one monitor cannot divide is its lock. When
// state partitions cleanly by key and waiters are keyed too, use a
// sharded monitor (internal/shard, re-exported as autosynch.Sharded): S
// inner Monitors, each with its own lock, condition manager, and tag
// index, so the lock traffic and the tag structures divide by S and
// operations on different shards run in parallel. Every per-shard guarantee
// of this package survives unchanged, because each shard IS a Monitor:
// relay invariance holds shard-locally, signals are relayed (never
// broadcast), and tags prune within each shard's groups.
//
// Conditions spanning shards ("total free slots across all shards ≥ n")
// cannot be a predicate of any single shard. The shard package's Counter
// gives them a home: per-shard deltas batch under the shard lock and
// publish into a small summary Monitor when they cross a threshold, and
// the aggregate bound is an ordinary compiled predicate on that summary
// — threshold-tagged, relay-signaled. Waiters escalate to the summary
// only after shard-local probing fails, and a watch protocol (precise
// publication plus a flush, ordered before the park) guarantees the
// batching never hides the update a parked aggregate waiter needs.
package core
