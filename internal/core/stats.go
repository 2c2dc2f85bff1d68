package core

import (
	"fmt"
	"time"
)

// Stats counts signaling events inside a monitor. All fields are mutated
// under the monitor lock; read a consistent copy with the monitor's Stats
// method. The wake-up counters are the repo's context-switch proxy: every
// wake-up is one unpark/park round trip of a goroutine, playing the role of
// the thread context switches counted in Fig. 15 of the paper.
type Stats struct {
	// Await traffic.
	Awaits   uint64 // Await/AwaitFunc calls
	FastPath uint64 // predicate already true on entry; no wait

	// Signaling.
	Signals    uint64 // single-thread signals issued
	Broadcasts uint64 // signalAll calls issued (baseline/explicit only)

	// Wake-ups observed by waiters. A wait that gives up while parked
	// (its context is done or its deadline passes) counts one Abandon,
	// plus one Expired for a deadline, and never a Wakeup — on every
	// mechanism.
	Wakeups       uint64 // returns from a park that go on to re-check the predicate
	FutileWakeups uint64 // wake-ups that found the predicate still false
	Abandons      uint64 // waiters that left early: context cancelled, deadline passed, or handle Cancel

	// First-class wait handles (Arm/ArmFunc/Claim).
	Arms         uint64 // handles armed, including arm failures
	Claims       uint64 // successful Claim calls (wait completed, monitor handed off)
	FutileClaims uint64 // claims that found the predicate falsified; handle re-armed

	// Condition-manager work (automatic mechanisms only).
	RelayCalls     uint64 // relaySignal invocations
	PredicateEvals uint64 // globalized predicate evaluations during relay
	TagChecks      uint64 // tag truth tests (hash probe hits and heap roots)
	Registrations  uint64 // new predicate entries built
	Reuses         uint64 // entries reactivated from the inactive list
	Evictions      uint64 // inactive entries dropped by the LRU limit

	// Generated-evaluator dispatch (internal/codegen): which path served
	// each Compile, and how many entries run a generated evaluator.
	GenPreds   uint64 // compiled predicates bound to a registered generated evaluator
	GenMisses  uint64 // compiled predicates with no registration; closure fallback
	GenEntries uint64 // predicate entries built with a generated evaluator

	// Wake policies and deadline waits. A monitor runs one policy, so
	// PolicyWakes aggregated per monitor is the per-policy wake count;
	// experiments comparing policies run one monitor per policy and read
	// it per arm. MaxWaitNs merges by maximum in Add, not by sum.
	PolicyWakes uint64 // signals whose target a configured wake policy picked
	Starved     uint64 // completed waits that exceeded the starvation threshold
	Expired     uint64 // waits and handles that ended at their deadline (ErrDeadline)
	MaxWaitNs   int64  // longest registration-to-completion wait observed

	// Flight recorder (internal/obs). Folded in from the monitor's ring
	// at snapshot time, never incremented per event, so recording costs
	// the hot path nothing beyond the ring write itself. Zero unless the
	// monitor was constructed while a recorder was active.
	ObsEvents uint64 // events published to the monitor's ring
	ObsDrops  uint64 // events dropped by ring slot contention
}

// ContextSwitches returns the wake-up count, the Fig. 15 quantity.
func (s Stats) ContextSwitches() uint64 { return s.Wakeups }

// String renders a compact single-line summary. It covers every field, a
// contract pinned by TestStatsCompleteness: a field it does not render
// would silently vanish from experiment output. The time spent per phase
// (Table 1) is not a counter: it comes from the flight recorder's span
// events (obs.Analyze).
func (s Stats) String() string {
	out := fmt.Sprintf(
		"awaits=%d fast=%d signals=%d broadcasts=%d wakeups=%d futile=%d relay=%d evals=%d tags=%d reg=%d reuse=%d",
		s.Awaits, s.FastPath, s.Signals, s.Broadcasts, s.Wakeups, s.FutileWakeups,
		s.RelayCalls, s.PredicateEvals, s.TagChecks, s.Registrations, s.Reuses)
	if s.Abandons > 0 {
		out += fmt.Sprintf(" abandons=%d", s.Abandons)
	}
	if s.Evictions > 0 {
		out += fmt.Sprintf(" evict=%d", s.Evictions)
	}
	if s.Arms > 0 || s.Claims > 0 || s.FutileClaims > 0 {
		out += fmt.Sprintf(" arms=%d claims=%d futile-claims=%d", s.Arms, s.Claims, s.FutileClaims)
	}
	if s.GenPreds > 0 || s.GenMisses > 0 || s.GenEntries > 0 {
		out += fmt.Sprintf(" gen=%d gen-miss=%d gen-entries=%d", s.GenPreds, s.GenMisses, s.GenEntries)
	}
	if s.PolicyWakes > 0 || s.Starved > 0 {
		out += fmt.Sprintf(" policy-wakes=%d starved=%d", s.PolicyWakes, s.Starved)
	}
	if s.Expired > 0 {
		out += fmt.Sprintf(" expired=%d", s.Expired)
	}
	if s.MaxWaitNs > 0 {
		out += fmt.Sprintf(" max-wait=%v", time.Duration(s.MaxWaitNs))
	}
	if s.ObsEvents > 0 || s.ObsDrops > 0 {
		out += fmt.Sprintf(" obs=%d obs-drops=%d", s.ObsEvents, s.ObsDrops)
	}
	return out
}

// Add merges two stats, used when aggregating several monitors of one
// experiment: counters sum field-wise, and MaxWaitNs — a maximum, not a
// total — merges by max, so the aggregate reports the single longest
// wait observed anywhere.
func (s Stats) Add(o Stats) Stats {
	maxWait := s.MaxWaitNs
	if o.MaxWaitNs > maxWait {
		maxWait = o.MaxWaitNs
	}
	return Stats{
		Awaits:         s.Awaits + o.Awaits,
		FastPath:       s.FastPath + o.FastPath,
		Signals:        s.Signals + o.Signals,
		Broadcasts:     s.Broadcasts + o.Broadcasts,
		Wakeups:        s.Wakeups + o.Wakeups,
		FutileWakeups:  s.FutileWakeups + o.FutileWakeups,
		Abandons:       s.Abandons + o.Abandons,
		Arms:           s.Arms + o.Arms,
		Claims:         s.Claims + o.Claims,
		FutileClaims:   s.FutileClaims + o.FutileClaims,
		RelayCalls:     s.RelayCalls + o.RelayCalls,
		PredicateEvals: s.PredicateEvals + o.PredicateEvals,
		TagChecks:      s.TagChecks + o.TagChecks,
		Registrations:  s.Registrations + o.Registrations,
		Reuses:         s.Reuses + o.Reuses,
		Evictions:      s.Evictions + o.Evictions,
		GenPreds:       s.GenPreds + o.GenPreds,
		GenMisses:      s.GenMisses + o.GenMisses,
		GenEntries:     s.GenEntries + o.GenEntries,
		PolicyWakes:    s.PolicyWakes + o.PolicyWakes,
		Starved:        s.Starved + o.Starved,
		Expired:        s.Expired + o.Expired,
		MaxWaitNs:      maxWait,
		ObsEvents:      s.ObsEvents + o.ObsEvents,
		ObsDrops:       s.ObsDrops + o.ObsDrops,
	}
}
