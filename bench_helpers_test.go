package autosynch_test

import (
	"testing"
	"time"

	autosynch "repro"
	"repro/internal/problems"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// benchTagShape parks waiters whose predicates share one shape and whose
// keys are unsatisfiable, then drives empty monitor operations. Every exit
// runs the relay search over the parked predicates, so the measured cost
// is exactly what predicate tagging prunes: an equivalence probe misses in
// O(1), a threshold heap stops at a false root, and untaggable predicates
// are evaluated exhaustively. A done flag releases the waiters afterwards.
func benchTagShape(b *testing.B, pred string) {
	b.Helper()
	const waiters = 32
	const driverOps = 2000
	m := autosynch.New()
	m.NewInt("x", 0) // stays 0: no key in 1..waiters is ever satisfied
	done := m.NewBool("done", false)
	shaped := m.MustCompile(pred + " || done")
	finished := make(chan struct{}, waiters)
	for w := 1; w <= waiters; w++ {
		go func(k int64) {
			m.Enter()
			if err := m.AwaitPred(shaped, autosynch.Bind("k", k)); err != nil {
				panic(err)
			}
			m.Exit()
			finished <- struct{}{}
		}(int64(w))
	}
	// Let every waiter park before measuring the relay cost.
	testutil.WaitFor(b, 10*time.Second, 0, func() bool { return m.Waiting() == waiters },
		"%d unsatisfiable waiters parked", waiters)
	for i := 0; i < driverOps; i++ {
		m.Do(func() {})
	}
	m.Do(func() { done.Set(true) })
	for w := 0; w < waiters; w++ {
		<-finished
	}
}

// benchAwaitMode drives the no-park await path through one of the API
// forms — the string predicate (cache lookup per wait), the compiled
// *Predicate (no lookup), the typed builder lowered to the same compiled
// predicate, or the compiled predicate served by its minisynchc-generated
// evaluator. The problems package (linked by this test binary) registers
// generated code for this very predicate at init, so the interpreter
// modes opt out with WithoutGenerated and only the "generated" mode keeps
// the default dispatch. The shared monitor state keeps the predicate true
// throughout, so every iteration takes the fast path and the measured
// ns/op is pure per-wait API overhead.
func benchAwaitMode(b *testing.B, mode string) {
	b.Helper()
	var opts []autosynch.Option
	if mode != "generated" {
		opts = append(opts, autosynch.WithoutGenerated())
	}
	m := autosynch.New(opts...)
	count := m.NewInt("count", 1)
	capacity := m.NewInt("cap", 1<<40)
	stop := m.NewBool("stop", false)
	const pred = "count + k <= cap || stop"
	var compiled *autosynch.Predicate
	switch mode {
	case "compiled", "generated":
		compiled = m.MustCompile(pred)
	case "builder":
		compiled = m.MustCompileExpr(autosynch.Or(
			count.Expr().Plus(autosynch.Local("k")).AtMost(capacity.Expr()),
			stop.IsTrue()))
	}
	if mode == "generated" && m.Stats().GenPreds == 0 {
		b.Fatal("generated mode bound no generated evaluator (registration missing?)")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Enter()
		var err error
		if compiled != nil {
			err = m.AwaitPred(compiled, autosynch.Bind("k", int64(i&1023)))
		} else {
			err = m.Await(pred, autosynch.Bind("k", int64(i&1023)))
		}
		if err != nil {
			b.Fatal(err)
		}
		m.Exit()
	}
	b.StopTimer()
	if s := m.Stats(); s.FastPath != s.Awaits {
		b.Fatalf("benchmark parked: %d awaits, %d fast-path", s.Awaits, s.FastPath)
	}
}

// benchParamBBLimit runs the parameterized buffer with a custom inactive
// list limit and returns the result for counter reporting.
func benchParamBBLimit(limit int) problems.Result {
	m := autosynch.New(autosynch.WithInactiveLimit(limit))
	count := m.NewInt("count", 0)
	m.NewInt("cap", problems.ParamBufferCap)
	stop := m.NewBool("stop", false)
	hasRoom := m.MustCompile("count + k <= cap || stop")
	hasItems := m.MustCompile("count >= num")

	const consumers = 8
	const takesEach = 200
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		seed := uint64(11)
		for {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			k := int64(seed%problems.MaxBatch) + 1
			m.Enter()
			if err := m.AwaitPred(hasRoom, autosynch.Bind("k", k)); err != nil {
				panic(err)
			}
			if stop.Get() {
				m.Exit()
				return
			}
			count.Add(k)
			m.Exit()
		}
	}()
	done := make(chan struct{}, consumers)
	for c := 0; c < consumers; c++ {
		go func(seed uint64) {
			for i := 0; i < takesEach; i++ {
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				num := int64(seed%problems.MaxBatch) + 1
				m.Enter()
				if err := m.AwaitPred(hasItems, autosynch.Bind("num", num)); err != nil {
					panic(err)
				}
				count.Add(-num)
				m.Exit()
			}
			done <- struct{}{}
		}(uint64(c)*7 + 3)
	}
	for c := 0; c < consumers; c++ {
		<-done
	}
	m.Do(func() { stop.Set(true) })
	<-prodDone
	return problems.Result{Stats: m.Stats(), Ops: consumers * takesEach}
}

// benchWakeToClaim arms `waiters` equivalence-keyed handles on one
// monitor, all subscribed to a single delivery channel, and drives `ops`
// publishes through them; each delivery is timed from channel dequeue to
// a successful Claim — the same wake-to-claim interval the watchd daemon
// histograms — and recorded into the returned histogram. One publish
// satisfies exactly one handle (distinct k per handle), so the claim
// never races and every op contributes one observation.
func benchWakeToClaim(waiters, ops int) stats.Histogram {
	m := autosynch.New()
	x := m.NewInt("x", 0)
	hit := m.MustCompile("x == k")
	handles := make([]*autosynch.Wait, waiters)
	ch := make(chan int, waiters)
	for k := range handles {
		handles[k] = hit.Arm(autosynch.Bind("k", int64(k+1)))
		handles[k].Subscribe(ch, k)
	}
	var hist stats.Histogram
	for i := 0; i < ops; i++ {
		k := int64(i%waiters) + 1
		m.Do(func() { x.Set(k) })
		idx := <-ch
		t0 := time.Now()
		if err := handles[idx].Claim(); err != nil {
			panic(err)
		}
		hist.Observe(time.Since(t0))
		x.Set(0)
		m.Exit()
		handles[idx] = hit.Arm(autosynch.Bind("k", int64(idx+1)))
		handles[idx].Subscribe(ch, idx)
	}
	for _, h := range handles {
		h.Cancel()
	}
	return hist
}

// TestBenchHelpers keeps the helpers honest under plain `go test`.
func TestBenchHelpers(t *testing.T) {
	r := benchParamBBLimit(128)
	if r.Stats.Registrations == 0 {
		t.Error("no registrations recorded")
	}
	if r.Stats.Broadcasts != 0 {
		t.Error("AutoSynch broadcast in bench helper")
	}
	const ops = 200
	h := benchWakeToClaim(16, ops)
	if h.Count() != ops {
		t.Errorf("wake-to-claim recorded %d observations, want %d", h.Count(), ops)
	}
	if h.P50() <= 0 || h.P99() < h.P50() || h.P999() < h.P99() {
		t.Errorf("wake-to-claim percentiles not monotone: %s", h.String())
	}
}
