package main

import (
	"math/rand/v2"
	"sync"

	autosynch "repro"
	"repro/internal/stats"
)

// The Fig. 14 parameterized buffer: one producer puts batches, consumers
// take batches, both of seeded sizes 1..pbufMaxBatch. The capacity is
// 2·pbufMaxBatch so the buffer cannot wedge: whenever the producer is
// blocked, count > cap - k >= pbufMaxBatch, so every consumer can proceed.
const (
	pbufConsumers = 64
	pbufMaxBatch  = 128
	pbufCap       = 2 * pbufMaxBatch
	pbufTimeEvery = 8 // each consumer times every 8th take
)

// skipDecrement is a test hook: when set, consumer 0 skips the decrement
// of its first take, which the conservation check must catch.
var skipDecrement bool

// Both buffer workloads draw their batch sizes from the same seeded
// streams: stream 0 for the producer, stream i+1 for consumer i. The
// streams are drawn as the load runs rather than replayed from a short
// table, whose period the buffer's schedule can lock onto.
func batch(r *rand.Rand) int64 { return 1 + r.Int64N(pbufMaxBatch) }

// pbufAuto is the buffer on an AutoSynch monitor: the producer waits for
// "count + k <= cap || stop", consumers for "count >= num", and relay
// signaling does the rest. Both predicates run generated evaluators (see
// preds.manifest).
type pbufAuto struct {
	*loop
	m        *autosynch.Monitor
	count    *autosynch.IntCell
	stopCell *autosynch.BoolCell
	hasRoom  *autosynch.Predicate
	hasItems *autosynch.Predicate
	producer sync.WaitGroup
	produced int64 // written by the producer inside the monitor
	consumed int64 // written by consumers inside the monitor
}

func setupPbuf(e *env) (instance, error) {
	b := &pbufAuto{loop: newLoop(e, pbufTimeEvery, pbufConsumers), m: autosynch.New()}
	b.count = b.m.NewInt("count", 0)
	b.m.NewInt("cap", pbufCap)
	b.stopCell = b.m.NewBool("stop", false)
	var err error
	if b.hasRoom, err = e.compile(b.m, "count + k <= cap || stop"); err != nil {
		return nil, err
	}
	if b.hasItems, err = e.compile(b.m, "count >= num"); err != nil {
		return nil, err
	}
	b.producer.Add(1)
	go b.produce(e.rand(0))
	for i := range pbufConsumers {
		go b.consume(i, e.rand(uint64(i)+1))
	}
	return b, nil
}

// produce is not gated: while the consumers are held it fills the buffer
// and waits.
func (b *pbufAuto) produce(r *rand.Rand) {
	defer b.producer.Done()
	for {
		k := batch(r)
		b.m.Enter()
		if err := b.m.AwaitPred(b.hasRoom, autosynch.Bind("k", k)); err != nil {
			b.failed.Add(1)
		}
		if b.stopCell.Get() {
			b.m.Exit()
			return
		}
		b.count.Add(k)
		b.produced += k
		b.m.Exit()
	}
}

func (b *pbufAuto) consume(id int, r *rand.Rand) {
	defer b.workers.Done()
	for i := 0; b.gate.pass(); i++ {
		num := batch(r)
		op := b.begin(i)
		b.m.Enter()
		op.mark(kEnter)
		if err := b.m.AwaitPred(b.hasItems, autosynch.Bind("num", num)); err != nil {
			b.failed.Add(1)
		}
		op.mark(kAwait)
		if !skipDecrement || id != 0 || i != 0 {
			b.count.Add(-num)
		}
		b.consumed += num
		op.skip()
		b.m.Exit()
		op.mark(kExit)
		op.end()
		b.ops.Add(1)
	}
}

func (b *pbufAuto) counts() counts {
	return counts{ops: b.ops.Load(), issued: b.ops.Load(), failed: b.failed.Load(), core: b.m.Stats()}
}

// stop lets the consumers finish their current take while the producer
// keeps them satisfiable, then stops the producer through its predicate.
func (b *pbufAuto) stop(c *checker) {
	b.halt()
	b.m.Do(func() { b.stopCell.Set(true) })
	b.producer.Wait()
	var count int64
	b.m.Do(func() { count = b.count.Get() })
	c.expect(b.produced-b.consumed-count == 0,
		"pbuf: produced %d - consumed %d - occupancy %d != 0", b.produced, b.consumed, count)
	c.expect(b.m.Waiting() == 0, "pbuf: %d waiters left after stop", b.m.Waiting())
	// pbuf measures the generated-evaluator path; a stale
	// zz_generated_preds.go would silently move it to the closure path.
	st := b.m.Stats()
	c.expect(st.GenPreds == 2 && st.GenMisses == 0,
		"pbuf: %d predicates on generated evaluators and %d on closures, want 2 and 0", st.GenPreds, st.GenMisses)
}

func (b *pbufAuto) wakeToClaim() *stats.Histogram { return orEmpty(b.m.WaitLatency()) }

func (b *pbufAuto) close(*checker) {}

// pbufExplicit is the same buffer written against explicit condition
// variables, as the paper's comparison point writes it: the producer
// cannot know which consumer's batch now fits, so every put broadcasts.
type pbufExplicit struct {
	*loop
	m        *autosynch.Explicit
	space    *autosynch.Cond
	items    *autosynch.Cond
	producer sync.WaitGroup
	// Guarded by m.
	count    int64
	stopFlag bool
	produced int64
	consumed int64
}

func setupPbufExplicit(e *env) (instance, error) {
	b := &pbufExplicit{loop: newLoop(e, pbufTimeEvery, pbufConsumers), m: autosynch.NewExplicit()}
	b.space = b.m.NewCond()
	b.items = b.m.NewCond()
	b.producer.Add(1)
	go b.produce(e.rand(0))
	for i := range pbufConsumers {
		go b.consume(i, e.rand(uint64(i)+1))
	}
	return b, nil
}

func (b *pbufExplicit) produce(r *rand.Rand) {
	defer b.producer.Done()
	for {
		k := batch(r)
		b.m.Enter()
		b.space.Await(func() bool { return b.count+k <= pbufCap || b.stopFlag })
		if b.stopFlag {
			b.m.Exit()
			return
		}
		b.count += k
		b.produced += k
		b.items.Broadcast()
		b.m.Exit()
	}
}

func (b *pbufExplicit) consume(id int, r *rand.Rand) {
	defer b.workers.Done()
	for i := 0; b.gate.pass(); i++ {
		num := batch(r)
		op := b.begin(i)
		b.m.Enter()
		op.mark(kEnter)
		b.items.Await(func() bool { return b.count >= num })
		op.mark(kAwait)
		if !skipDecrement || id != 0 || i != 0 {
			b.count -= num
		}
		b.consumed += num
		op.skip()
		// The program's own signal is the explicit analogue of the relay
		// an AutoSynch Exit runs, so core.exit covers both.
		b.space.Broadcast()
		b.m.Exit()
		op.mark(kExit)
		op.end()
		b.ops.Add(1)
	}
}

func (b *pbufExplicit) counts() counts {
	return counts{ops: b.ops.Load(), issued: b.ops.Load(), failed: b.failed.Load(), core: b.m.Stats()}
}

func (b *pbufExplicit) stop(c *checker) {
	b.halt()
	b.m.Enter()
	b.stopFlag = true
	b.space.Broadcast()
	b.m.Exit()
	b.producer.Wait()
	c.expect(b.produced-b.consumed-b.count == 0,
		"pbuf-explicit: produced %d - consumed %d - occupancy %d != 0", b.produced, b.consumed, b.count)
	c.expect(b.m.Waiting() == 0, "pbuf-explicit: %d waiters left after stop", b.m.Waiting())
}

func (b *pbufExplicit) wakeToClaim() *stats.Histogram { return orEmpty(b.m.WaitLatency()) }

func (b *pbufExplicit) close(*checker) {}

func orEmpty(h *stats.Histogram) *stats.Histogram {
	if h == nil {
		return &stats.Histogram{}
	}
	return h
}
