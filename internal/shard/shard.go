// Package shard implements a hash-partitioned automatic-signal monitor:
// protected state is split by key across S inner core.Monitor instances,
// each with its own mutex, condition manager, tag index, and entry lists,
// so operations on independent keys proceed in parallel.
//
// A single monitor's relay search visits only the predicate groups whose
// cells an exit wrote, so its cost does not grow with the number of
// co-resident groups, but every operation on it serializes on one lock.
// Partitioning keeps the paper's guarantees intact per shard — relay
// invariance, no broadcasts, tag-pruned search — while dividing the lock
// traffic, and the tag structures, by S.
//
// Cross-shard conditions ("total free slots across all shards ≥ n") are
// expressed with a Counter: per-shard counter cells accumulate deltas
// under their shard's lock and publish them to a small summary monitor in
// batches (threshold/epoch propagation), so the hot path touches one
// shard only. Waiters on the aggregate park on the summary monitor and a
// watch protocol (precise-mode flag plus a flush) guarantees no update is
// lost while anyone is watching; see Counter.
package shard

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// config collects construction options.
type config struct {
	monOpts []core.Option
	setup   func(shard int, m *core.Monitor)
}

// Option configures New.
type Option func(*config)

// WithMonitorOptions passes core options (WithoutTagging, WithPolicy, …)
// to every inner monitor, and to the summary monitors of counters
// created later.
func WithMonitorOptions(opts ...core.Option) Option {
	return func(c *config) { c.monOpts = append(c.monOpts, opts...) }
}

// WithSetup runs fn once per shard at construction, before the monitor is
// shared: declare each shard's cells (and compile shard-resident
// predicates) here. Uniform declarations — the same cell names on every
// shard — are what make Compile and shard-agnostic predicates work.
func WithSetup(fn func(shard int, m *core.Monitor)) Option {
	return func(c *config) { c.setup = fn }
}

// Monitor is a sharded automatic-signal monitor. The per-key methods
// (Do, Enter/Exit, AwaitPred, ArmFunc, …) mirror the Mechanism surface of
// a single monitor with a routing key in front: every key deterministically
// maps to one shard, and two operations contend only when their keys
// collide. Stats are merged across shards with core.Stats.Add; Waiting
// sums the per-shard registered-waiter counts.
type Monitor struct {
	shards  []*core.Monitor
	monOpts []core.Option
}

// New constructs a sharded monitor with n inner automatic-signal
// monitors. n must be positive; 1 degenerates to a single core.Monitor
// behind the key-routing surface (the conformance reference).
func New(n int, opts ...Option) *Monitor {
	if n <= 0 {
		panic(fmt.Sprintf("shard: monitor needs a positive shard count, got %d", n))
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	sm := &Monitor{shards: make([]*core.Monitor, n), monOpts: cfg.monOpts}
	for i := range sm.shards {
		sm.shards[i] = core.New(cfg.monOpts...)
		if cfg.setup != nil {
			cfg.setup(i, sm.shards[i])
		}
	}
	return sm
}

// NumShards returns the shard count.
func (sm *Monitor) NumShards() int { return len(sm.shards) }

// IndexFor is the pure routing function: the shard index key maps to
// among n shards. Exposed so setup code can compute ownership before the
// Monitor exists (declaring each key's cells on its owner shard).
func IndexFor(key uint64, n int) int {
	// fmix64: full-avalanche finalizer, so clustered keys spread.
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return int(key % uint64(n))
}

// StringKey hashes a string key (FNV-1a) into the uint64 key space.
func StringKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Index returns the shard index owning key.
func (sm *Monitor) Index(key uint64) int { return IndexFor(key, len(sm.shards)) }

// Of returns the inner monitor owning key.
func (sm *Monitor) Of(key uint64) *core.Monitor { return sm.shards[sm.Index(key)] }

// Shard returns the inner monitor at index i (for per-shard setup,
// stealing sweeps, and tests).
func (sm *Monitor) Shard(i int) *core.Monitor { return sm.shards[i] }

// Enter acquires the monitor of key's shard and returns it, so the
// critical section can read and write the shard's cells. Pair with
// Exit(key) — the same key, or the monitor's own Exit.
func (sm *Monitor) Enter(key uint64) *core.Monitor {
	m := sm.Of(key)
	m.Enter()
	return m
}

// Exit releases the monitor of key's shard (running its relay step).
func (sm *Monitor) Exit(key uint64) { sm.Of(key).Exit() }

// Do runs f inside key's shard: Enter, f(shard monitor), Exit.
func (sm *Monitor) Do(key uint64, f func(m *core.Monitor)) {
	m := sm.Of(key)
	m.Enter()
	defer m.Exit()
	f(m)
}

// DoShard is Do by shard index rather than key (stealing sweeps, flushes).
func (sm *Monitor) DoShard(i int, f func(m *core.Monitor)) {
	m := sm.shards[i]
	m.Enter()
	defer m.Exit()
	f(m)
}

// AwaitPred waits on key's shard for a sharded predicate; the caller must
// hold that shard (Enter(key) first), exactly as core.Monitor.AwaitPred.
func (sm *Monitor) AwaitPred(key uint64, p *Predicate, binds ...core.Binding) error {
	i := sm.Index(key)
	return sm.shards[i].AwaitPred(p.On(i), binds...)
}

// AwaitPredCtx is AwaitPred with cancellation; like the core form it
// returns holding the shard's monitor even when abandoning.
func (sm *Monitor) AwaitPredCtx(ctx context.Context, key uint64, p *Predicate, binds ...core.Binding) error {
	i := sm.Index(key)
	return sm.shards[i].AwaitPredCtx(ctx, p.On(i), binds...)
}

// AwaitPredDeadline is AwaitPred with an absolute deadline; the expiry
// is a runtime timer that gives up on the owning shard's monitor only.
func (sm *Monitor) AwaitPredDeadline(deadline time.Time, key uint64, p *Predicate, binds ...core.Binding) error {
	i := sm.Index(key)
	return sm.shards[i].AwaitPredDeadline(deadline, p.On(i), binds...)
}

// AwaitFunc blocks on key's shard until the closure holds; caller inside
// the shard's monitor.
func (sm *Monitor) AwaitFunc(key uint64, pred func() bool) { sm.Of(key).AwaitFunc(pred) }

// AwaitFuncCtx is AwaitFunc with cancellation.
func (sm *Monitor) AwaitFuncCtx(ctx context.Context, key uint64, pred func() bool) error {
	return sm.Of(key).AwaitFuncCtx(ctx, pred)
}

// AwaitFuncDeadline is AwaitFunc with an absolute deadline on key's
// shard; see core.Monitor.AwaitFuncDeadline for the expiry semantics.
func (sm *Monitor) AwaitFuncDeadline(deadline time.Time, key uint64, pred func() bool) error {
	return sm.Of(key).AwaitFuncDeadline(deadline, pred)
}

// AwaitFuncTimeout is AwaitFuncDeadline with a relative duration.
func (sm *Monitor) AwaitFuncTimeout(d time.Duration, key uint64, pred func() bool) error {
	return sm.Of(key).AwaitFuncTimeout(d, pred)
}

// Arm registers a handle for a sharded predicate on key's shard without
// blocking; call outside the shard's monitor, as Predicate.Arm.
func (sm *Monitor) Arm(key uint64, p *Predicate, binds ...core.Binding) *core.Wait {
	return p.On(sm.Index(key)).Arm(binds...)
}

// When returns the guarded region for a sharded predicate on key's
// shard: Do atomically enters that shard, awaits the predicate, runs the
// body, and exits with a panic-safe unlock. Guards of different keys may
// live on different shards — different inner monitors — and compose with
// core.Select exactly like guards of unrelated monitors, so one
// goroutine can serve many keys with first-true-wins selection and no
// parked goroutine per key.
func (sm *Monitor) When(key uint64, p *Predicate, binds ...core.Binding) *core.Guard {
	i := sm.Index(key)
	return sm.shards[i].When(p.On(i), binds...)
}

// WhenFunc is When for a closure predicate on key's shard; the closure
// must only read state guarded by that shard's monitor.
func (sm *Monitor) WhenFunc(key uint64, pred func() bool) *core.Guard {
	return sm.Of(key).WhenFunc(pred)
}

// WhenShard is WhenFunc by shard index rather than key (maintenance
// sweeps and rebalancers address shards directly, as with DoShard).
func (sm *Monitor) WhenShard(i int, pred func() bool) *core.Guard {
	return sm.shards[i].WhenFunc(pred)
}

// TryPred evaluates a sharded predicate once on key's shard; caller
// inside the shard's monitor.
func (sm *Monitor) TryPred(key uint64, p *Predicate, binds ...core.Binding) (bool, error) {
	i := sm.Index(key)
	return sm.shards[i].TryPred(p.On(i), binds...)
}

// ArmFunc registers a closure-predicate handle on key's shard; call
// outside the shard's monitor.
func (sm *Monitor) ArmFunc(key uint64, pred func() bool) *core.Wait {
	return sm.Of(key).ArmFunc(pred)
}

// TryFunc evaluates the closure once on key's shard; caller inside the
// shard's monitor.
func (sm *Monitor) TryFunc(key uint64, pred func() bool) bool { return sm.Of(key).TryFunc(pred) }

// TrySteal runs try inside the home shard and then, on failure, inside
// every other shard in rotation order — the work-stealing sweep: a caller
// that can be served by any shard (take a task, claim permits) probes its
// own shard first for locality and falls back to stealing before it ever
// parks. try runs under the visited shard's monitor and reports whether
// that shard satisfied the request; the sweep stops at the first success.
// The visited shard index is returned so the caller can account locality.
func (sm *Monitor) TrySteal(home int, try func(m *core.Monitor, shard int) bool) (int, bool) {
	n := len(sm.shards)
	for off := 0; off < n; off++ {
		i := (home + off) % n
		ok := false
		sm.DoShard(i, func(m *core.Monitor) { ok = try(m, i) })
		if ok {
			return i, true
		}
	}
	return -1, false
}

// Stats returns the field-wise sum of every shard's counters (merged with
// core.Stats.Add), so sharded and single-monitor runs are compared on the
// same instrumentation.
func (sm *Monitor) Stats() core.Stats {
	var s core.Stats
	for _, m := range sm.shards {
		s = s.Add(m.Stats())
	}
	return s
}

// WaitLatency returns the merged wake-to-claim histogram across every
// shard (see core.Mechanism.WaitLatency), or nil if no shard has
// completed a parked wait.
func (sm *Monitor) WaitLatency() *stats.Histogram {
	var merged *stats.Histogram
	for _, m := range sm.shards {
		h := m.WaitLatency()
		if h == nil {
			continue
		}
		if merged == nil {
			merged = h
			continue
		}
		merged.Merge(h)
	}
	return merged
}

// StatsByShard returns each shard's counters (skew diagnostics).
func (sm *Monitor) StatsByShard() []core.Stats {
	out := make([]core.Stats, len(sm.shards))
	for i, m := range sm.shards {
		out[i] = m.Stats()
	}
	return out
}

// ResetStats zeroes every shard's counters.
func (sm *Monitor) ResetStats() {
	for _, m := range sm.shards {
		m.ResetStats()
	}
}

// Waiting returns the total registered-waiter count across shards; tests
// poll it instead of sleeping and assert zero for leak checks, as with a
// single monitor.
func (sm *Monitor) Waiting() int {
	n := 0
	for _, m := range sm.shards {
		n += m.Waiting()
	}
	return n
}

// WaitingByShard returns each shard's registered-waiter count — the
// queue-depth signal that drives work-stealing rebalance: a shard with
// parked waiters and no work is starved while its siblings are backed up.
func (sm *Monitor) WaitingByShard() []int {
	out := make([]int, len(sm.shards))
	for i, m := range sm.shards {
		out[i] = m.Waiting()
	}
	return out
}

// Hottest returns the index of the shard with the deepest waiter queue
// (ties to the lowest index) — where a rebalancer should deliver work.
func (sm *Monitor) Hottest() int {
	best, depth := 0, -1
	for i, m := range sm.shards {
		if w := m.Waiting(); w > depth {
			best, depth = i, w
		}
	}
	return best
}
