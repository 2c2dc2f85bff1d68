// Package policy defines pluggable wake policies for automatic-signal
// monitors. The paper's relay invariance (§4.2) guarantees that *some*
// waiter with a true predicate is signaled whenever one exists, but
// deliberately leaves *which* one unspecified — the runtime picks the
// first eligible waiter its search happens to visit. A Policy makes that
// choice explicit and observable: FIFO for fairness, LIFO for cache
// warmth, Priority for schedulers.
//
// The package is deliberately free of monitor machinery: a policy is a
// pure comparator over Candidate records (arrival order plus a
// registration-time rank), so internal/core can consult it inside the
// relay search without this package importing core. Select a policy for a
// whole monitor with core.WithPolicy, or override it per predicate with
// Predicate.UsePolicy.
//
// A policy must induce a total order: Better(a, b) and Better(b, a) must
// never both be true for distinct candidates, and ties must be broken
// deterministically (the built-in policies break ties by arrival
// sequence). The relay search reaches the eligible waiters in an order
// set by the writes and searches before it, so a partial order would make
// the pick depend on that order rather than on the waiters alone.
package policy

// Candidate describes one eligible waiter at pick time: a waiter whose
// globalized predicate currently holds and that has no notification in
// flight. Seq is the waiter's monitor-global arrival sequence (smaller
// means registered earlier; re-arming after a futile wake-up keeps the
// original sequence, so fairness is measured from first registration).
// Rank is the registration-time priority computed by Policy.Rank from
// the waiter's local bindings; it is 0 for policies that do not rank.
type Candidate struct {
	Seq  uint64
	Rank int64
}

// Policy decides which eligible waiter a relay search or Exit-time
// signal picks. Implementations must be safe for concurrent use (the
// built-ins are stateless).
type Policy interface {
	// Name identifies the policy in reports and experiment output.
	Name() string

	// Rank computes a waiter's rank once, at registration, from its
	// local bindings (predicate locals by name, booleans as 0/1; nil for
	// closure waiters, which have no bindings). Policies that do not
	// rank return 0.
	Rank(binds map[string]int64) int64

	// Better reports whether candidate a should be woken before
	// candidate b. It must be a strict total order (see the package
	// documentation).
	Better(a, b Candidate) bool
}

// FIFO wakes the earliest-registered eligible waiter: bounded max-wait,
// no starvation — the fairness policy.
var FIFO Policy = fifo{}

// LIFO wakes the latest-registered eligible waiter: the most recently
// parked goroutine has the warmest cache and stack, at the cost of
// possible starvation of old waiters under sustained load.
var LIFO Policy = lifo{}

type fifo struct{}

func (fifo) Name() string                { return "fifo" }
func (fifo) Rank(map[string]int64) int64 { return 0 }
func (fifo) Better(a, b Candidate) bool  { return a.Seq < b.Seq }

type lifo struct{}

func (lifo) Name() string                { return "lifo" }
func (lifo) Rank(map[string]int64) int64 { return 0 }
func (lifo) Better(a, b Candidate) bool  { return a.Seq > b.Seq }

// Priority builds a policy that wakes the highest-ranked eligible waiter,
// breaking rank ties FIFO (earliest arrival first). rank is evaluated
// once per waiter, at registration, against the waiter's local bindings —
// the same frozen snapshot globalization uses (Proposition 1: locals
// cannot change while the thread waits), so evaluating it off the wait
// path is sound. Closure waiters (AwaitFunc/ArmFunc) have no bindings and
// are ranked rank(nil).
//
// Priority can starve low-ranked waiters by design; monitors account for
// it (Stats.Starved, Stats.MaxWaitNs) rather than preventing it.
func Priority(rank func(binds map[string]int64) int64) Policy {
	return priority{rank: rank}
}

type priority struct {
	rank func(binds map[string]int64) int64
}

func (priority) Name() string { return "priority" }

func (p priority) Rank(binds map[string]int64) int64 {
	if p.rank == nil {
		return 0
	}
	return p.rank(binds)
}

func (priority) Better(a, b Candidate) bool {
	if a.Rank != b.Rank {
		return a.Rank > b.Rank
	}
	return a.Seq < b.Seq
}
