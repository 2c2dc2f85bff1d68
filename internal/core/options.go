package core

import (
	"time"

	"repro/internal/policy"
)

// DefaultInactiveLimit is the default length bound of the inactive
// predicate list (§5.2: predicates with no waiting thread are parked for
// reuse; the oldest are dropped when the list exceeds a threshold). A
// parked entry keeps the shared-expression groups it names, with their
// compiled evaluators, alive, so its reuse rebuilds nothing; its
// eviction releases them. The default comfortably covers the key spaces
// of the paper's workloads (the parameterized buffer cycles through ~260
// distinct globalized predicates); see the abl-inactive experiment for
// the sensitivity.
const DefaultInactiveLimit = 512

type config struct {
	tagging       bool
	generated     bool
	inactiveLimit int
	policy        policy.Policy // wake policy; nil keeps the first-found relay pick
	starveNs      int64         // starvation threshold; 0 disables Starved accounting
}

func defaultConfig() config {
	return config{
		tagging:       true,
		generated:     true,
		inactiveLimit: DefaultInactiveLimit,
	}
}

// Option configures a Monitor at construction.
type Option func(*config)

// WithoutTagging disables predicate tagging: the relay search scans every
// registered predicate linearly. This is the AutoSynch-T mechanism of the
// paper's evaluation, kept as a first-class option because it doubles as
// the ablation baseline for tagging.
func WithoutTagging() Option {
	return func(c *config) { c.tagging = false }
}

// WithoutGenerated disables generated-evaluator dispatch: Compile keeps
// the closure-compiled evaluators even when a matching registration
// exists (see RegisterGenerated). This is the ablation baseline for the
// codegen experiments, and the escape hatch if a stale generated file is
// ever suspect.
func WithoutGenerated() Option {
	return func(c *config) { c.generated = false }
}

// WithInactiveLimit bounds the inactive predicate list, and with it the
// tag nodes, shared-expression groups and compiled evaluators that parked
// entries keep alive for their reuse. Evicting an entry releases its
// nodes and groups. Zero disables caching entirely (every deactivated
// predicate is discarded, with the nodes and groups only it named), which
// suits a monitor whose predicate identities never repeat. At any limit
// the monitor keeps the entry it released last and builds the next fresh
// entry in its storage, so a miss allocates little more than its identity
// string and tag analysis.
func WithInactiveLimit(n int) Option {
	return func(c *config) {
		if n >= 0 {
			c.inactiveLimit = n
		}
	}
}

// WithPolicy selects the monitor's wake policy (policy.FIFO, policy.LIFO,
// policy.Priority, or a custom total order): whenever the relay rule — or
// an Explicit condition's Signal — has several eligible waiters, the
// policy decides which one wakes. Without a policy the runtime keeps the
// paper's behavior: the first eligible waiter the (tag-pruned) search
// visits, which is cheapest but unspecified.
//
// A policy-governed relay runs the same write-driven, tag-pruned search
// as one without a policy, which reaches every eligible waiter, but does
// not stop at the first: it visits every candidate tag group and the
// whole None list, and compares every eligible waiter it reaches. It
// never scans the predicate table. Per-predicate overrides
// (Predicate.UsePolicy) refine the pick within that predicate's waiters
// only. For Baseline the policy has no blocking-wait effect — its
// broadcast discipline wakes everyone and the lock queue arbitrates — but
// the wait-time accounting (Starved, MaxWaitNs) still applies.
func WithPolicy(p policy.Policy) Option {
	return func(c *config) { c.policy = p }
}

// WithStarvationThreshold sets the wait duration past which a completed
// wait counts into Stats.Starved, making starvation a counted quantity
// instead of an anecdote. Zero (the default) disables the counter;
// MaxWaitNs is tracked regardless.
func WithStarvationThreshold(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.starveNs = int64(d)
		}
	}
}
