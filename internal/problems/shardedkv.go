package problems

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

func init() {
	// The baseline is dropped from the lineup as off-scale, like the
	// other broadcast-storm scenarios: its re-broadcast before every
	// re-wait turns the standing watch sessions into minutes of futile
	// wake-ups at representative scale. The differential test still runs
	// it at small scale.
	Register(Spec{
		Name:           "sharded-kv",
		Runner:         RunShardedKV,
		DefaultThreads: 64,
		Mechs:          NoBaseline,
		CheckDesc:      "every published version observed; aggregate lag drained to zero",
		Sharded:        true,
	})
}

// kvWindow is the pairwise flow-control window: a publisher runs at most
// this many puts ahead of its paired subscriber, so both sides generate
// real waiter traffic (subscribers wait on versions, publishers on the
// subscriber's progress).
const kvWindow = 8

// RunShardedKV is a sharded key-value/watch store: publishers bump
// per-key version cells, subscribers block until "key k has reached
// version r" — the per-key waiter pattern of a watch API. State is
// hash-striped across ShardCount() partitions; every key's version cell,
// its waiters, and its predicate entries live on the owner shard only, so
// operations on independent keys never share a lock.
//
// threads goroutines run in publisher/subscriber pairs (threads/2 pairs).
// Pair i's two sides draw the same seeded key sequence, so the subscriber
// waits for exactly the versions its publisher creates; the publisher is
// throttled to kvWindow puts ahead of its subscriber through a per-pair
// progress cell — version waits are therefore satisfied within a bounded
// horizon and the run is deadlock-free by construction (the publisher
// only waits on its own subscriber, which never waits for a version its
// publisher has not already produced while the window is open).
//
// Each pair also holds a standing watch session: a goroutine parked on
// the pair's shutdown flag for the entire measured phase and released
// only after the traffic completes — the long-lived watches a watch-API
// server carries while write traffic flows. Every session is a waiter on
// its own shared expression (its session cell), so a single monitor
// carries one standing predicate group per pair. The relay search visits
// a group only when a cell it reads is written, and a session cell is
// written only at teardown, so the standing sessions cost the exits of
// the measured phase nothing. Sharding divides the lock traffic, which
// is where the scale-shards sweep gets its slope.
//
// The automatic variants additionally track total outstanding versions
// (puts minus observations) in a cross-shard aggregate Counter with
// batched publication. Ops counts puts plus observations; Check is the
// sum of final version cells minus total puts, plus the drained aggregate
// (all must be zero).
func RunShardedKV(mech Mechanism, threads, totalOps int) Result {
	return RunShardedKVShards(mech, threads, totalOps, ShardCount())
}

// RunShardedKVShards is RunShardedKV with an explicit partition count
// (the scale-shards sweep; 1 degenerates to a single monitor).
func RunShardedKVShards(mech Mechanism, threads, totalOps, shards int) Result {
	pairs := threads / 2
	if pairs == 0 {
		pairs = 1
	}
	keys := threads
	if keys < 32 {
		keys = 32
	}
	pairOps := split(totalOps, pairs)
	switch mech {
	case Explicit:
		return runKVExplicit(pairs, pairOps, keys, shards)
	case Baseline:
		return runKVBaseline(pairs, pairOps, keys, shards)
	default:
		return runKVAuto(mech, pairs, pairOps, keys, shards)
	}
}

// kvPairKey places pair i's flow-control cell in a key range disjoint
// from the version keys.
func kvPairKey(i int) uint64 { return uint64(i) | 1<<32 }

func kvSeed(i int) uint64 { return uint64(i)*2654435761 + 1 }

func runKVAuto(mech Mechanism, pairs int, pairOps []int, keys, shards int) Result {
	// Setup declares each key's version cell and each pair's progress and
	// session cells on its owner shard, capturing the handles.
	vcell := make([]*core.IntCell, keys)
	dcell := make([]*core.IntCell, pairs)
	wcell := make([]*core.IntCell, pairs)
	sm := shard.New(shards,
		shard.WithMonitorOptions(autoOpts(mech)...),
		shard.WithSetup(func(s int, m *core.Monitor) {
			for k := 0; k < keys; k++ {
				if shard.IndexFor(uint64(k), shards) == s {
					vcell[k] = m.NewInt(fmt.Sprintf("v%d", k), 0)
				}
			}
			for i := 0; i < pairs; i++ {
				if shard.IndexFor(kvPairKey(i), shards) == s {
					dcell[i] = m.NewInt(fmt.Sprintf("d%d", i), 0)
					wcell[i] = m.NewInt(fmt.Sprintf("w%d", i), 0)
				}
			}
		}))
	// Per-key "version reached" predicates compile on the owner shard;
	// per-pair "subscriber caught up" and session-shutdown predicates on
	// the pair's home shard.
	reached := make([]*core.Predicate, keys)
	for k := 0; k < keys; k++ {
		reached[k] = sm.MustCompileAt(uint64(k), fmt.Sprintf("v%d >= r", k))
	}
	caught := make([]*core.Predicate, pairs)
	closed := make([]*core.Predicate, pairs)
	for i := 0; i < pairs; i++ {
		caught[i] = sm.MustCompileAt(kvPairKey(i), fmt.Sprintf("d%d >= need", i))
		closed[i] = sm.MustCompileAt(kvPairKey(i), fmt.Sprintf("w%d >= 1", i))
	}
	lag := sm.NewCounter("lag", 64)

	// Park every watch session before the clock starts, so the standing
	// waiter population — the thing the partitioning is measured against —
	// is in place for the whole measured phase.
	var wg, swg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		swg.Add(1)
		go func(i int) { // watch session: parked until released at the end
			defer swg.Done()
			sm.Enter(kvPairKey(i))
			await(closed[i])
			sm.Exit(kvPairKey(i))
		}(i)
	}
	for sm.Waiting() < pairs {
		time.Sleep(50 * time.Microsecond)
	}
	start := time.Now()
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(i, n int) { // publisher
			defer wg.Done()
			rng := newRand(kvSeed(i))
			for j := 0; j < n; j++ {
				k := int(rng.intn(int64(keys))) - 1
				if j+1 > kvWindow {
					sm.Enter(kvPairKey(i))
					await(caught[i], core.BindInt("need", int64(j+1-kvWindow)))
					sm.Exit(kvPairKey(i))
				}
				sm.Do(uint64(k), func(*core.Monitor) {
					vcell[k].Add(1)
					lag.Add(sm.Index(uint64(k)), 1)
				})
			}
		}(i, pairOps[i])
		wg.Add(1)
		go func(i, n int) { // subscriber
			defer wg.Done()
			rng := newRand(kvSeed(i))
			seen := make(map[int]int64, keys)
			for j := 0; j < n; j++ {
				k := int(rng.intn(int64(keys))) - 1
				seen[k]++
				sm.Enter(uint64(k))
				await(reached[k], core.BindInt("r", seen[k]))
				lag.Add(sm.Index(uint64(k)), -1)
				sm.Exit(uint64(k))
				sm.Do(kvPairKey(i), func(*core.Monitor) { dcell[i].Add(1) })
			}
		}(i, pairOps[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := 0; i < pairs; i++ {
		i := i
		sm.Do(kvPairKey(i), func(*core.Monitor) { wcell[i].Set(1) })
	}
	swg.Wait()

	var totalPuts, sumV int64
	for _, n := range pairOps {
		totalPuts += int64(n)
	}
	for k := 0; k < keys; k++ {
		k := k
		sm.Do(uint64(k), func(*core.Monitor) { sumV += vcell[k].Get() })
	}
	check := sumV - totalPuts
	if check == 0 {
		check = lag.Total()
	}
	return Result{Mechanism: mech, Elapsed: elapsed,
		Stats: sm.Stats().Add(lag.Summary().Stats()),
		Ops:   2 * totalPuts, Check: check,
		Latency: mergeLatency(sm.WaitLatency(), lag.Summary().WaitLatency())}
}

// runKVExplicit is the hand-sharded explicit-signal variant: the
// programmer stripes the store across explicit monitors, keeps one
// condition per key (version watchers) and one per pair (flow control),
// and signals each at exactly the right point — the manual counterpart of
// what shard.Monitor automates. Version bumps broadcast their key's
// condition because watchers wait for different version bounds.
func runKVExplicit(pairs int, pairOps []int, keys, shards int) Result {
	stripes := make([]*core.Explicit, shards)
	for s := range stripes {
		stripes[s] = core.NewExplicit()
	}
	vers := make([]int64, keys)
	vcond := make([]*core.Cond, keys)
	for k := range vcond {
		vcond[k] = stripes[shard.IndexFor(uint64(k), shards)].NewCond()
	}
	prog := make([]int64, pairs)
	sessDone := make([]bool, pairs)
	pcond := make([]*core.Cond, pairs)
	wcond := make([]*core.Cond, pairs)
	for i := range pcond {
		owner := stripes[shard.IndexFor(kvPairKey(i), shards)]
		pcond[i] = owner.NewCond()
		wcond[i] = owner.NewCond()
	}
	stripe := func(key uint64) *core.Explicit { return stripes[shard.IndexFor(key, shards)] }
	waitingSum := func() int {
		n := 0
		for _, st := range stripes {
			n += st.Waiting()
		}
		return n
	}

	var wg, swg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		swg.Add(1)
		go func(i int) { // watch session: parked until released at the end
			defer swg.Done()
			ps := stripe(kvPairKey(i))
			ps.Enter()
			wcond[i].Await(func() bool { return sessDone[i] })
			ps.Exit()
		}(i)
	}
	for waitingSum() < pairs {
		time.Sleep(50 * time.Microsecond)
	}
	start := time.Now()
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(i, n int) { // publisher
			defer wg.Done()
			rng := newRand(kvSeed(i))
			for j := 0; j < n; j++ {
				k := int(rng.intn(int64(keys))) - 1
				if j+1 > kvWindow {
					need := int64(j + 1 - kvWindow)
					ps := stripe(kvPairKey(i))
					ps.Enter()
					pcond[i].Await(func() bool { return prog[i] >= need })
					ps.Exit()
				}
				ks := stripe(uint64(k))
				ks.Enter()
				vers[k]++
				vcond[k].Broadcast()
				ks.Exit()
			}
		}(i, pairOps[i])
		wg.Add(1)
		go func(i, n int) { // subscriber
			defer wg.Done()
			rng := newRand(kvSeed(i))
			seen := make(map[int]int64, keys)
			for j := 0; j < n; j++ {
				k := int(rng.intn(int64(keys))) - 1
				seen[k]++
				r := seen[k]
				ks := stripe(uint64(k))
				ks.Enter()
				vcond[k].Await(func() bool { return vers[k] >= r })
				ks.Exit()
				ps := stripe(kvPairKey(i))
				ps.Enter()
				prog[i]++
				pcond[i].Signal()
				ps.Exit()
			}
		}(i, pairOps[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := 0; i < pairs; i++ {
		ps := stripe(kvPairKey(i))
		ps.Enter()
		sessDone[i] = true
		wcond[i].Signal()
		ps.Exit()
	}
	swg.Wait()

	var totalPuts, sumV int64
	for _, n := range pairOps {
		totalPuts += int64(n)
	}
	ms := make([]core.Mechanism, len(stripes))
	for s, st := range stripes {
		ms[s] = st
	}
	for k := 0; k < keys; k++ {
		st := stripe(uint64(k))
		st.Enter()
		sumV += vers[k]
		st.Exit()
	}
	return Result{Mechanism: Explicit, Elapsed: elapsed, Stats: stripeStats(ms...),
		Ops: 2 * totalPuts, Check: sumV - totalPuts, Latency: stripeLatency(ms...)}
}

// runKVBaseline stripes the store across baseline monitors: every exit
// broadcasts, every woken waiter re-checks its closure — the strawman,
// striped for a like-for-like comparison.
func runKVBaseline(pairs int, pairOps []int, keys, shards int) Result {
	stripes := make([]*core.Baseline, shards)
	for s := range stripes {
		stripes[s] = core.NewBaseline()
	}
	vers := make([]int64, keys)
	prog := make([]int64, pairs)
	sessDone := make([]bool, pairs)
	stripe := func(key uint64) *core.Baseline { return stripes[shard.IndexFor(key, shards)] }
	waitingSum := func() int {
		n := 0
		for _, st := range stripes {
			n += st.Waiting()
		}
		return n
	}

	var wg, swg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		swg.Add(1)
		go func(i int) { // watch session: parked until released at the end
			defer swg.Done()
			ps := stripe(kvPairKey(i))
			ps.Enter()
			ps.Await(func() bool { return sessDone[i] })
			ps.Exit()
		}(i)
	}
	for waitingSum() < pairs {
		time.Sleep(50 * time.Microsecond)
	}
	start := time.Now()
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(i, n int) { // publisher
			defer wg.Done()
			rng := newRand(kvSeed(i))
			for j := 0; j < n; j++ {
				k := int(rng.intn(int64(keys))) - 1
				if j+1 > kvWindow {
					need := int64(j + 1 - kvWindow)
					ps := stripe(kvPairKey(i))
					ps.Enter()
					ps.Await(func() bool { return prog[i] >= need })
					ps.Exit()
				}
				ks := stripe(uint64(k))
				ks.Enter()
				vers[k]++
				ks.Exit()
			}
		}(i, pairOps[i])
		wg.Add(1)
		go func(i, n int) { // subscriber
			defer wg.Done()
			rng := newRand(kvSeed(i))
			seen := make(map[int]int64, keys)
			for j := 0; j < n; j++ {
				k := int(rng.intn(int64(keys))) - 1
				seen[k]++
				r := seen[k]
				ks := stripe(uint64(k))
				ks.Enter()
				ks.Await(func() bool { return vers[k] >= r })
				ks.Exit()
				ps := stripe(kvPairKey(i))
				ps.Enter()
				prog[i]++
				ps.Exit()
			}
		}(i, pairOps[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := 0; i < pairs; i++ {
		ps := stripe(kvPairKey(i))
		ps.Enter()
		sessDone[i] = true
		ps.Exit()
	}
	swg.Wait()

	var totalPuts, sumV int64
	for _, n := range pairOps {
		totalPuts += int64(n)
	}
	ms := make([]core.Mechanism, len(stripes))
	for s, st := range stripes {
		ms[s] = st
	}
	for k := 0; k < keys; k++ {
		st := stripe(uint64(k))
		st.Enter()
		sumV += vers[k]
		st.Exit()
	}
	return Result{Mechanism: Baseline, Elapsed: elapsed, Stats: stripeStats(ms...),
		Ops: 2 * totalPuts, Check: sumV - totalPuts, Latency: stripeLatency(ms...)}
}
