package autosynch

import "repro/internal/shard"

// Sharded is a hash-partitioned automatic-signal monitor: protected state
// is split by key across inner monitors, each with its own lock,
// condition manager, and tag index, so operations on independent keys
// proceed in parallel and the relay search on every exit walks only one
// shard's predicate groups. Cross-shard conditions are expressed with an
// AggregateCounter. The keyed When/WhenFunc return Guards on the owning
// shard, so guarded regions of different keys — different inner
// monitors — compose with Select like guards of unrelated monitors. See
// the sharding section of the package documentation and internal/shard
// for details.
type Sharded = shard.Monitor

// ShardedPredicate is a waiting condition compiled once on every shard of
// a Sharded monitor (uniform cell names), routed by key at wait time.
type ShardedPredicate = shard.Predicate

// AggregateCounter is a cross-shard aggregate with batched epoch
// publication into a summary monitor; aggregate predicates ("total ≥ n")
// are ordinary compiled predicates there.
type AggregateCounter = shard.Counter

// ShardOption configures NewSharded.
type ShardOption = shard.Option

// NewSharded constructs a sharded automatic-signal monitor with n inner
// monitors.
func NewSharded(n int, opts ...ShardOption) *Sharded { return shard.New(n, opts...) }

// WithShardSetup declares each shard's cells (and compiles shard-resident
// predicates) at construction; fn runs once per shard.
func WithShardSetup(fn func(shard int, m *Monitor)) ShardOption { return shard.WithSetup(fn) }

// WithShardMonitorOptions passes core options (WithoutTagging,
// WithPolicy, …) to every inner monitor and to counter summaries.
func WithShardMonitorOptions(opts ...Option) ShardOption {
	return shard.WithMonitorOptions(opts...)
}

// ShardIndexFor is the pure key-routing function: the shard index key
// maps to among n shards (for computing cell ownership during setup).
func ShardIndexFor(key uint64, n int) int { return shard.IndexFor(key, n) }

// ShardStringKey hashes a string key into the sharded key space.
func ShardStringKey(s string) uint64 { return shard.StringKey(s) }
