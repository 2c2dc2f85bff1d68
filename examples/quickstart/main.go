// Quickstart: the paper's Fig. 1 parameterized bounded buffer, written
// with waituntil-style predicates instead of condition variables.
//
// Producers put batches of random size, consumers take batches of the
// same sizes, and nobody ever calls signal or signalAll: the runtime's
// relay signaling wakes exactly the threads whose conditions have become
// true.
//
// The waiting conditions are compiled once, at setup: Put's through the
// typed predicate builder, Take's from a predicate string — both lower to
// the same compiled representation, so each wait only binds its
// thread-local batch size and enqueues. (Monitor.Await("…") with a string
// per call also works and consults the same predicate cache; compiling
// ahead just keeps even the cache lookup off the hot path.)
//
// The second act is select multiplexing: one dispatcher goroutine drains
// TWO independent buffers at once by arming a wait handle on each
// (Predicate.Arm) and selecting over the Ready channels — no goroutine is
// parked per waiter; the relay signal lands on a channel instead. That is
// the pattern a server multiplexing many resources scales with (see the
// `dispatcher` scenario and BenchmarkMultiplexedWaiters for the 1024-way
// version).
//
// The second act's Take also shows the guarded-region form: the whole
// enter / waituntil / mutate / exit unit as one value (Monitor.When →
// Guard.Do), with the unlock guaranteed even if the body panics.
//
// The third act is sharding: one monitor is one lock and one condition
// manager, so every operation on it serializes, however few of its
// waiting conditions an exit's writes touch (the relay search visits
// only those). When state
// and waiters partition by key, a Sharded monitor splits them across S
// inner monitors (each with its own lock, condition manager, and tag
// index): keyed operations on different shards run concurrently, relay
// invariance holds per shard exactly as before, and genuinely global
// conditions ("total free slots across ALL shards ≥ n") live on an
// AggregateCounter — per-shard deltas batch under the shard lock and
// publish to a small summary monitor, where the bound is an ordinary
// threshold-tagged predicate. The sharded-kv, striped-semaphore, and
// work-stealing-pool scenarios plus BenchmarkShardScaling are the
// full-size versions.
//
// The fourth act is guarded regions and selective waiting: When reifies
// the conditional critical region as a first-class Guard, and Select
// waits on guards spanning DIFFERENT monitors at once — parking the
// goroutine a single time, claiming the first predicate to become true,
// running the winning body under that monitor, and cancelling the losers
// with no leaked waiters. SelectOrdered makes the case order a priority
// order and Default makes the whole thing non-blocking, exactly like a
// select statement. The `selective-server` scenario and BenchmarkSelect
// are the full-size versions.
//
// Where these patterns end up at production scale is `cmd/watchd`: a
// watch-service daemon holding 10⁵+ keyed sessions as armed handles
// over a Sharded monitor (no goroutine per session), with admission
// control, LRU eviction, and p50/p99/p999 wake-to-claim histograms —
// `go run ./cmd/watchd -quick` soaks it and verifies a leak-free drain.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"sync"

	autosynch "repro"
)

// BoundedBuffer is the automatic-signal version of Fig. 1: compare the
// explicit-signal Java on the figure's left, with its two condition
// variables and signalAll calls.
type BoundedBuffer struct {
	mon   *autosynch.Monitor
	buf   []int
	put   int
	take  int
	count *autosynch.IntCell

	hasRoom  *autosynch.Predicate // waituntil(count + k <= cap)
	hasItems *autosynch.Predicate // waituntil(count >= num)
}

// NewBoundedBuffer creates a buffer with capacity n.
func NewBoundedBuffer(n int) *BoundedBuffer {
	b := &BoundedBuffer{mon: autosynch.New(), buf: make([]int, n)}
	b.count = b.mon.NewInt("count", 0)
	capacity := b.mon.NewInt("cap", int64(n))

	// Typed builder form: no strings, the cells themselves spell the
	// condition.
	b.hasRoom = b.mon.MustCompileExpr(
		b.count.Expr().Plus(autosynch.Local("k")).AtMost(capacity.Expr()))
	// String form: compiles to the same representation.
	b.hasItems = b.mon.MustCompile("count >= num")
	return b
}

// Put stores items, waiting until the buffer has room for all of them.
func (b *BoundedBuffer) Put(items []int) {
	b.mon.Enter()
	defer b.mon.Exit()
	// waituntil(count + k <= cap)
	if err := b.hasRoom.Await(autosynch.Bind("k", int64(len(items)))); err != nil {
		panic(err)
	}
	for _, it := range items {
		b.buf[b.put] = it
		b.put = (b.put + 1) % len(b.buf)
	}
	b.count.Add(int64(len(items)))
}

// Take removes and returns num items, waiting until they exist. It is
// written as a guarded region: When packages enter + waituntil + exit
// into one unit, and Do runs the body inside the monitor with the
// predicate true — the unlock is deferred, so even a panicking body
// cannot leak the lock. (Put above spells the same structure by hand.)
func (b *BoundedBuffer) Take(num int) []int {
	out := make([]int, num)
	// waituntil(count >= num)
	err := b.mon.When(b.hasItems, autosynch.Bind("num", int64(num))).Do(func() {
		for i := range out {
			out[i] = b.buf[b.take]
			b.take = (b.take + 1) % len(b.buf)
		}
		b.count.Add(int64(-num))
	})
	if err != nil {
		panic(err)
	}
	return out
}

func main() {
	const (
		producers = 4
		consumers = 4
		batches   = 500
	)
	b := NewBoundedBuffer(64)

	// Producers announce each batch size on a channel; consumers take
	// exactly those sizes, so production and consumption balance and the
	// program terminates deterministically.
	sizes := make(chan int, producers*batches)
	var produced, consumed int64
	var mu sync.Mutex

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(seed int64) {
			defer pwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < batches; i++ {
				n := rng.Intn(16) + 1
				b.Put(make([]int, n))
				mu.Lock()
				produced += int64(n)
				mu.Unlock()
				sizes <- n
			}
		}(int64(p))
	}
	go func() { pwg.Wait(); close(sizes) }()

	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for n := range sizes {
				b.Take(n)
				mu.Lock()
				consumed += int64(n)
				mu.Unlock()
			}
		}()
	}
	cwg.Wait()

	s := b.mon.Stats()
	fmt.Printf("produced %d items, consumed %d items, left in buffer %d\n",
		produced, consumed, produced-consumed)
	fmt.Printf("signals=%d broadcasts=%d wakeups=%d futile=%d\n",
		s.Signals, s.Broadcasts, s.Wakeups, s.FutileWakeups)
	if s.Broadcasts != 0 {
		panic("AutoSynch must never broadcast")
	}
	fmt.Println("no signal or signalAll call appears anywhere in this program.")

	dispatchDemo()
	shardedDemo()
	selectiveDemo()
}

// dispatchDemo multiplexes two buffers from one goroutine with armed wait
// handles: the select-composable face of the same waituntil predicates.
func dispatchDemo() {
	const items = 200
	a, b := NewBoundedBuffer(8), NewBoundedBuffer(8)

	// Two producers fill their own buffers; nobody consumes but the
	// dispatcher below.
	for _, buf := range []*BoundedBuffer{a, b} {
		go func(buf *BoundedBuffer) {
			for i := 0; i < items; i++ {
				buf.Put([]int{i})
			}
		}(buf)
	}

	// notEmpty is a shared (local-free) predicate: compiled once per
	// buffer, armed over and over. Arm registers the waiter without
	// parking a goroutine; Ready fires when relay signaling finds it
	// true; Claim re-enters the monitor, re-validates, and hands the
	// monitor over.
	notEmptyA := a.mon.MustCompile("count >= 1")
	notEmptyB := b.mon.MustCompile("count >= 1")
	wa, wb := notEmptyA.Arm(), notEmptyB.Arm()
	var fromA, fromB int
	for fromA+fromB < 2*items {
		select {
		case <-wa.Ready():
			if err := wa.Claim(); err == nil { // monitor held, count >= 1
				a.takeOneLocked()
				a.mon.Exit()
				fromA++
				wa = notEmptyA.Arm()
			} else if err != autosynch.ErrNotReady {
				panic(err) // ErrNotReady re-armed wa; anything else is a bug
			}
		case <-wb.Ready():
			if err := wb.Claim(); err == nil {
				b.takeOneLocked()
				b.mon.Exit()
				fromB++
				wb = notEmptyB.Arm()
			} else if err != autosynch.ErrNotReady {
				panic(err)
			}
		}
	}
	wa.Cancel()
	wb.Cancel()
	fmt.Printf("dispatcher drained %d+%d items from two buffers with one goroutine and zero parked waiters\n",
		fromA, fromB)
}

// takeOneLocked removes one item; the caller holds the monitor with
// count >= 1 (a successful Claim).
func (b *BoundedBuffer) takeOneLocked() {
	b.take = (b.take + 1) % len(b.buf)
	b.count.Add(-1)
}

// shardedDemo is a miniature striped resource pool: 4 shards each hold a
// "slots" cell, keyed borrowers take from their key's shard, and one
// goroutine waits on the CROSS-SHARD aggregate "total free ≥ 6" — a
// condition no single shard can express — through an AggregateCounter.
func shardedDemo() {
	const shards = 4
	slots := make([]*autosynch.IntCell, shards)
	sm := autosynch.NewSharded(shards,
		autosynch.WithShardSetup(func(s int, m *autosynch.Monitor) {
			slots[s] = m.NewInt("slots", 0) // pool starts empty
		}))
	// "slots >= 1" compiles once per shard; waits route by key.
	available := sm.MustCompile("slots >= 1")
	// The aggregate: shard-local deltas batch (threshold 2) and publish
	// into the counter's summary monitor, where "total >= n" is an
	// ordinary threshold-tagged predicate.
	free := sm.NewCounter("free", 2)

	// A filler drips two slots into every shard. Filling is a per-shard
	// maintenance sweep, so it addresses shards by index (DoShard) — keys
	// hash, so "one key per shard" would NOT visit every shard.
	go func() {
		for round := 0; round < 2; round++ {
			for s := 0; s < shards; s++ {
				sm.DoShard(s, func(*autosynch.Monitor) {
					slots[s].Add(1)
					free.Add(s, 1)
				})
			}
		}
	}()

	// A keyed borrower parks shard-locally: only its shard's exits are
	// considered for its wake-up, not the other shards' traffic.
	borrowed := make(chan int)
	go func() {
		key := autosynch.ShardStringKey("user:42")
		sm.Enter(key)
		if err := sm.AwaitPred(key, available); err != nil {
			panic(err)
		}
		slots[sm.Index(key)].Add(-1)
		free.Add(sm.Index(key), -1)
		sm.Exit(key)
		borrowed <- sm.Index(key)
	}()

	// The aggregate waiter escalates to the summary monitor: Watch-then-
	// flush inside AwaitAtLeast guarantees the batched deltas cannot hide
	// the bound from it.
	if err := free.AwaitAtLeast(6); err != nil {
		panic(err)
	}
	from := <-borrowed
	// The aggregate waiter parked on the counter's summary monitor, so
	// merge its stats too — exactly how the sharded scenarios report.
	s := sm.Stats().Add(free.Summary().Stats())
	fmt.Printf("sharded pool: aggregate reached %d free (published in %d batches), borrower took a slot from shard %d\n",
		free.Total(), free.Publishes(), from)
	fmt.Printf("merged shard stats: signals=%d broadcasts=%d wakeups=%d; per-shard waiters now %v\n",
		s.Signals, s.Broadcasts, s.Wakeups, sm.WaitingByShard())
	if s.Broadcasts != 0 {
		panic("sharded AutoSynch must never broadcast either")
	}
}

// selectiveDemo is a miniature selective server: two request classes on
// SEPARATE monitors (gold outranks bronze), one server goroutine waiting
// on both with a single SelectOrdered — no goroutine per class, the
// winning batch served under that class's own lock, priority whenever
// both classes are ready at once.
func selectiveDemo() {
	const requests = 150
	gold, bronze := autosynch.New(), autosynch.New()
	goldQ := gold.NewInt("q", 0)
	bronzeQ := bronze.NewInt("q", 0)
	gold.NewInt("cap", 8)
	bronze.NewInt("cap", 8)
	// Each class's admission and service predicates live on its own
	// monitor; the guards below are reusable values.
	goldRoom := gold.When(gold.MustCompile("q < cap"))
	bronzeRoom := bronze.When(bronze.MustCompile("q < cap"))
	hasGold := gold.When(gold.MustCompile("q > 0"))
	hasBronze := bronze.When(bronze.MustCompile("q > 0"))

	for _, c := range []struct {
		room *autosynch.Guard
		q    *autosynch.IntCell
	}{{goldRoom, goldQ}, {bronzeRoom, bronzeQ}} {
		go func(room *autosynch.Guard, q *autosynch.IntCell) {
			for i := 0; i < requests; i++ {
				// The guarded region: enter, waituntil(q < cap), enqueue,
				// exit — one call, panic-safe.
				if err := room.Do(func() { q.Add(1) }); err != nil {
					panic(err)
				}
			}
		}(c.room, c.q)
	}

	var servedGold, servedBronze, goldWins, selections int64
	for servedGold+servedBronze < 2*requests {
		selections++
		// Case order is priority order: when both queues are non-empty at
		// a decision point, gold is served first. A lone ready bronze is
		// served immediately — priority never starves the only ready class.
		idx, err := autosynch.SelectOrdered(
			hasGold.Then(func() { servedGold += goldQ.Get(); goldQ.Set(0) }),
			hasBronze.Then(func() { servedBronze += bronzeQ.Get(); bronzeQ.Set(0) }),
		)
		if err != nil {
			panic(err)
		}
		if idx == 0 {
			goldWins++
		}
	}

	// Both queues are drained; a non-blocking Select (a Default case)
	// proves it without parking anything.
	idx, err := autosynch.Select(
		hasGold.Then(func() {}),
		hasBronze.Then(func() {}),
		autosynch.Default(func() {}),
	)
	if err != nil || idx != 2 {
		panic(fmt.Sprintf("queues not drained: case %d, err %v", idx, err))
	}
	fmt.Printf("selective server: served %d gold + %d bronze with one goroutine; gold won %d of %d selections; %d waiters left\n",
		servedGold, servedBronze, goldWins, selections, gold.Waiting()+bronze.Waiting())
}
