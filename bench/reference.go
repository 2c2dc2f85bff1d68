package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// The reference is a fixed load the benchmark runs in turns with every
// workload, a fraction of a second each, so that both see the same host.
// Other tenants of the host change how fast it runs this code by up to a
// half within seconds, through the memory system rather than by taking
// the processor away, and a run can fall wholly into a slow stretch; the
// reference's rate, measured beside the workload's, scales every bounded
// timing to a host of fixed speed (see README.md, "Host-speed scaling").
//
// It is pbuf-explicit's bounded buffer on the standard library's
// sync.Mutex and sync.Cond, so no change to the repository can change its
// speed. Each take also writes refObjects 32-byte objects into the
// consumer's share of a 4 MiB arena, fresh memory as pbuf's allocations
// write it; the reference allocates nothing, so it never starts a
// collection.
const (
	refConsumers = 64
	refObjects   = 12
	refArenaObjs = 2048 // objects per consumer: 64 KiB, 4 MiB in all
	// refSeed seeds the reference's batch sizes. It is fixed, not -seed:
	// every run gives the reference the same work.
	refSeed = 0x5eed
	// refNominal is the reference's rate, in takes per second, on the
	// host every bounded timing is scaled to; about its rate on the
	// development host in a quiet hour.
	refNominal = 2.5e6
)

type refObject struct{ a, b, c, d int64 }

type reference struct {
	gate      *gate
	mu        sync.Mutex
	space     *sync.Cond
	items     *sync.Cond
	count     int64 // guarded by mu
	stopping  bool  // guarded by mu
	takes     atomic.Int64
	producer  sync.WaitGroup
	consumers sync.WaitGroup
}

// startReference starts the reference held at its gate.
func startReference() *reference {
	r := &reference{gate: newGate(refConsumers)}
	r.space = sync.NewCond(&r.mu)
	r.items = sync.NewCond(&r.mu)
	arena := make([]refObject, refConsumers*refArenaObjs)
	r.producer.Add(1)
	go r.produce(rand.New(rand.NewPCG(refSeed, 0)))
	r.consumers.Add(refConsumers)
	for i := range refConsumers {
		go r.consume(arena[i*refArenaObjs:(i+1)*refArenaObjs], rand.New(rand.NewPCG(refSeed, uint64(i)+1)))
	}
	return r
}

// produce is not gated: while the consumers are held it fills the buffer
// and waits.
func (r *reference) produce(rng *rand.Rand) {
	defer r.producer.Done()
	for {
		k := batch(rng)
		r.mu.Lock()
		for r.count+k > pbufCap && !r.stopping {
			r.space.Wait()
		}
		if r.stopping {
			r.mu.Unlock()
			return
		}
		r.count += k
		r.items.Broadcast()
		r.mu.Unlock()
	}
}

func (r *reference) consume(arena []refObject, rng *rand.Rand) {
	defer r.consumers.Done()
	next := 0
	for r.gate.pass() {
		num := batch(rng)
		r.mu.Lock()
		for r.count < num {
			r.items.Wait()
		}
		r.count -= num
		r.space.Broadcast()
		r.mu.Unlock()
		for range refObjects {
			arena[next] = refObject{num, num, num, num}
			next = (next + 1) % len(arena)
		}
		r.takes.Add(1)
	}
}

// run lets the reference run for about d and returns the takes it made
// and the seconds it had.
func (r *reference) run(d time.Duration) (takes int64, secs float64) {
	n0 := r.takes.Load()
	t0 := time.Now()
	r.gate.open()
	time.Sleep(d)
	r.gate.hold()
	return r.takes.Load() - n0, time.Since(t0).Seconds()
}

func (r *reference) stop() {
	r.gate.stop()
	r.consumers.Wait()
	r.mu.Lock()
	r.stopping = true
	r.space.Broadcast()
	r.mu.Unlock()
	r.producer.Wait()
}
