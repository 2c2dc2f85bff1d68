// Benchmarks reproducing every table and figure of the paper's evaluation
// (§6). Each BenchmarkFigNN runs the corresponding workload once per
// b.N at a representative thread count and reports the custom metrics the
// paper plots (runtime is b's own metric; wake-ups, futile wake-ups, and
// signals are reported as per-op metrics). The full multi-point sweeps —
// the actual figure series — are produced by cmd/autosynch-bench; these
// benches make every experiment reachable through `go test -bench`.
//
// Sub-benchmarks are named by mechanism so benchstat can compare them:
//
//	go test -bench 'Fig14' -benchmem
package autosynch_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	autosynch "repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/problems"
	"repro/internal/stats"
	"repro/internal/testutil"
	"repro/internal/watchd"
)

// benchOps is the per-iteration operation budget. Small enough that -bench
// finishes quickly, large enough that signaling dominates setup.
const benchOps = 5000

// benchProblem runs one problem/mechanism pair under b.N and reports the
// paper's counters as per-op metrics.
func benchProblem(b *testing.B, runner problems.Runner, mech problems.Mechanism, threads int) {
	b.Helper()
	var wakeups, futile, signals, broadcasts float64
	var ops int64
	for i := 0; i < b.N; i++ {
		r := runner(mech, threads, benchOps)
		if r.Check != 0 {
			b.Fatalf("conservation check failed: %d", r.Check)
		}
		wakeups += float64(r.Stats.Wakeups)
		futile += float64(r.Stats.FutileWakeups)
		signals += float64(r.Stats.Signals)
		broadcasts += float64(r.Stats.Broadcasts)
		ops += r.Ops
	}
	perOp := float64(ops)
	if perOp == 0 {
		perOp = 1
	}
	b.ReportMetric(wakeups/perOp, "wakeups/op")
	b.ReportMetric(futile/perOp, "futile/op")
	b.ReportMetric(signals/perOp, "signals/op")
	b.ReportMetric(broadcasts/perOp, "broadcasts/op")
}

func benchMechs(b *testing.B, runner problems.Runner, mechs []problems.Mechanism, threads int) {
	b.Helper()
	for _, mech := range mechs {
		mech := mech
		b.Run(fmt.Sprintf("%s/threads=%d", mech, threads), func(b *testing.B) {
			benchProblem(b, runner, mech, threads)
		})
	}
}

// BenchmarkProblems iterates the scenario registry: one sub-benchmark
// per registered scenario and mechanism at the scenario's representative
// thread count, so every workload — the paper's seven and every later
// addition — is reachable through `go test -bench` without a
// hand-maintained list:
//
//	go test -bench 'Problems/river-crossing' -benchmem
func BenchmarkProblems(b *testing.B) {
	for _, spec := range problems.Specs() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			benchMechs(b, spec.Runner, spec.Mechanisms(), spec.DefaultThreads)
		})
	}
}

// BenchmarkFig11RoundRobinWide: the right end of Fig. 11's x-axis, where
// AutoSynch-T's linear scan separates from AutoSynch.
func BenchmarkFig11RoundRobinWide(b *testing.B) {
	rr := problems.MustLookup("round-robin")
	benchMechs(b, rr.Runner, rr.Mechanisms(), 128)
}

// BenchmarkFig15ContextSwitches: the parameterized buffer reported
// through the wake-up counters (Fig. 15); read the wakeups/op metric.
func BenchmarkFig15ContextSwitches(b *testing.B) {
	pb := problems.MustLookup("parameterized-buffer")
	benchMechs(b, pb.Runner, pb.Mechanisms(), 64)
}

// BenchmarkTable1CPUBreakdown: the round-robin run behind Table 1, under
// the flight recorder; reports the relaySignal, tag-manager and await
// span totals per run as metrics.
func BenchmarkTable1CPUBreakdown(b *testing.B) {
	for _, mech := range []problems.Mechanism{problems.Explicit, problems.AutoSynchT, problems.AutoSynch} {
		mech := mech
		b.Run(mech.String(), func(b *testing.B) {
			var relayNs, tagNs, awaitNs float64
			for i := 0; i < b.N; i++ {
				r, an, wrapped := harness.Table1Run(mech, benchOps)
				if r.Check != 0 {
					b.Fatalf("check failed: %d", r.Check)
				}
				if wrapped || an.Drops != 0 {
					b.Fatalf("lossy trace: wrapped=%t drops=%d", wrapped, an.Drops)
				}
				relayNs += float64(an.RelayNs)
				tagNs += float64(an.TagNs)
				awaitNs += float64(an.AwaitNs)
			}
			n := float64(b.N)
			b.ReportMetric(relayNs/n, "relay-ns/run")
			b.ReportMetric(tagNs/n, "tagmgr-ns/run")
			b.ReportMetric(awaitNs/n, "await-ns/run")
		})
	}
}

// BenchmarkAwaitStringVsCompiled quantifies the per-wait savings of the
// compiled-predicate API. The predicate is always satisfied, so no
// iteration parks and ns/op is exactly the await-path overhead: the
// string form re-hashes the source text against the predicate cache on
// every wait, AwaitPred skips the lookup entirely, the typed-builder
// form compiles to the same *Predicate as the string, and the generated
// form runs the same AwaitPred loop with the minisynchc-generated
// evaluator dispatched in place of the closure tree (BenchmarkObsNoParkWait
// prices the same loop under the flight recorder):
//
//	go test -bench 'AwaitStringVsCompiled' -benchtime 2s
func BenchmarkAwaitStringVsCompiled(b *testing.B) {
	for _, mode := range []string{"string", "compiled", "builder", "generated"} {
		b.Run(mode, func(b *testing.B) {
			benchAwaitMode(b, mode)
		})
	}
}

// BenchmarkMultiplexedWaiters is the scale proof of the handle redesign:
// ONE goroutine drives 1024 concurrently armed waits. The handles variant
// arms 1024 equivalence-tagged predicates (x == k) on one monitor and
// multiplexes them with reflect.Select — no goroutine is parked anywhere;
// the relay signal lands on the armed handle's channel and the claim
// re-validates under the lock. The goroutines variant serves the exact
// same traffic the pre-handle way, with 1024 goroutines each blocked in
// AwaitPred, so the ns/op gap (and -benchmem allocation gap) is the cost
// of goroutine-per-waiter multiplexing; EXPERIMENTS.md records the
// comparison.
func BenchmarkMultiplexedWaiters(b *testing.B) {
	const waiters = 1024
	b.Run(fmt.Sprintf("handles-select-%d", waiters), func(b *testing.B) {
		m := autosynch.New()
		x := m.NewInt("x", 0)
		hit := m.MustCompile("x == k")
		handles := make([]*autosynch.Wait, waiters)
		cases := make([]reflect.SelectCase, waiters)
		for k := range handles {
			handles[k] = hit.Arm(autosynch.Bind("k", int64(k+1)))
			cases[k] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(handles[k].Ready())}
		}
		if w := m.Waiting(); w != waiters {
			b.Fatalf("armed %d waits, Waiting() = %d", waiters, w)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i%waiters) + 1
			m.Do(func() { x.Set(k) })
			idx, _, _ := reflect.Select(cases)
			if err := handles[idx].Claim(); err != nil {
				b.Fatalf("claim of handle %d: %v", idx, err)
			}
			x.Set(0)
			m.Exit()
			handles[idx] = hit.Arm(autosynch.Bind("k", int64(idx+1)))
			cases[idx].Chan = reflect.ValueOf(handles[idx].Ready())
		}
		b.StopTimer()
		for _, h := range handles {
			h.Cancel()
		}
		if w := m.Waiting(); w != 0 {
			b.Fatalf("%d handles leaked after Cancel", w)
		}
	})
	// handles-direct isolates the handle machinery (arm, relay delivery,
	// claim, re-arm) from reflect.Select's O(N) case walk: the same 1024
	// armed waits, but the driver receives from the one channel it knows
	// will fire. The gap between this and handles-select is pure
	// reflect.Select cost.
	b.Run(fmt.Sprintf("handles-direct-%d", waiters), func(b *testing.B) {
		m := autosynch.New()
		x := m.NewInt("x", 0)
		hit := m.MustCompile("x == k")
		handles := make([]*autosynch.Wait, waiters)
		for k := range handles {
			handles[k] = hit.Arm(autosynch.Bind("k", int64(k+1)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i%waiters) + 1
			m.Do(func() { x.Set(k) })
			idx := int(k - 1)
			<-handles[idx].Ready()
			if err := handles[idx].Claim(); err != nil {
				b.Fatalf("claim of handle %d: %v", idx, err)
			}
			x.Set(0)
			m.Exit()
			handles[idx] = hit.Arm(autosynch.Bind("k", int64(idx+1)))
		}
		b.StopTimer()
		for _, h := range handles {
			h.Cancel()
		}
		if w := m.Waiting(); w != 0 {
			b.Fatalf("%d handles leaked after Cancel", w)
		}
	})
	b.Run(fmt.Sprintf("goroutines-%d", waiters), func(b *testing.B) {
		m := autosynch.New()
		x := m.NewInt("x", 0)
		stop := m.NewBool("stop", false)
		hit := m.MustCompile("x == k || stop")
		ack := make(chan struct{}, 1)
		done := make(chan struct{}, waiters)
		for k := 1; k <= waiters; k++ {
			go func(k int64) {
				for {
					m.Enter()
					if err := m.AwaitPred(hit, autosynch.Bind("k", k)); err != nil {
						panic(err)
					}
					if stop.Get() {
						m.Exit()
						done <- struct{}{}
						return
					}
					x.Set(0)
					m.Exit()
					ack <- struct{}{}
				}
			}(int64(k))
		}
		testutil.WaitFor(b, 30*time.Second, 0, func() bool { return m.Waiting() == waiters },
			"%d goroutine waiters parked", waiters)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i%waiters) + 1
			m.Do(func() { x.Set(k) })
			<-ack
		}
		b.StopTimer()
		m.Do(func() { stop.Set(true) })
		for k := 0; k < waiters; k++ {
			<-done
		}
	})
}

// BenchmarkSelect prices the three ways one goroutine can wait on N
// predicates across N distinct monitors, at a fan-out of 16. Each
// iteration deposits one token on a rotating monitor and consumes it:
//
//   - select-guards: autosynch.Select over N reusable guards — the
//     guarded-region API unit. Each call arms N handles, parks once on a
//     single shared channel (no reflect walk), claims Mesa-style, and
//     cancels the losers, so its per-op cost is the honest price of
//     leak-free arming and teardown.
//   - reflect-handles: the pre-guard spelling this PR removed from the
//     dispatcher scenario — persistent armed handles multiplexed with
//     reflect.Select, re-armed one at a time. Cheaper per op (no re-arm
//     churn) but the loop is hand-assembled, leak-prone, and pays
//     reflect.Select's O(N) case walk on every park.
//   - goroutine-per-guard: the pre-handle answer — one goroutine parked
//     in Guard.Do per monitor, a channel ack per consumption; the cost
//     of goroutine-per-waiter multiplexing.
//
// The three modes share one harness, harness.RunSelectFan — the same
// code the sel-fanout experiment sweeps — so the re-arm and teardown
// protocols exist in exactly one copy; read the ns/item metric for the
// per-delivery cost (raw ns/op is one whole benchOps-sized run).
func BenchmarkSelect(b *testing.B) {
	const fan = 16
	for _, mode := range []string{"select-guards", "reflect-handles", "goroutine-per-guard"} {
		mode := mode
		b.Run(fmt.Sprintf("%s-%d", mode, fan), func(b *testing.B) {
			var elapsed time.Duration
			var ops int64
			for i := 0; i < b.N; i++ {
				r := harness.RunSelectFan(mode, fan, benchOps)
				if r.Check != 0 {
					b.Fatalf("%d waiters leaked", r.Check)
				}
				elapsed += r.Elapsed
				ops += r.Ops
			}
			if ops > 0 {
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(ops), "ns/item")
				b.ReportMetric(float64(ops)/elapsed.Seconds(), "items/s")
			}
		})
	}
}

// BenchmarkShardScaling is the scaling proof of the sharded monitor: the
// sharded-kv workload at a fixed 256 goroutines, swept over partition
// counts, with shards=1 as the single-core.Monitor reference. A single
// monitor takes all the lock traffic, and 16 shards divide it by 16. Its
// relay search visits only the groups whose cells an exit wrote, so the
// standing per-pair sessions cost no exit a search until teardown.
// Compare ns/op across the sub-benchmarks (benchstat), or read the
// ops/s metric directly; the scale-shards experiment is the multi-trial
// sweep with the same series:
//
//	go test -bench 'ShardScaling' -benchtime 3x
func BenchmarkShardScaling(b *testing.B) {
	const threads = 256
	for _, shards := range []int{1, 4, 16} {
		shards := shards
		b.Run(fmt.Sprintf("autosynch/shards=%d/threads=%d", shards, threads), func(b *testing.B) {
			var ops int64
			var wakeups, futile float64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				r := problems.RunShardedKVShards(problems.AutoSynch, threads, benchOps, shards)
				if r.Check != 0 {
					b.Fatalf("conservation check failed: %d", r.Check)
				}
				ops += r.Ops
				elapsed += r.Elapsed
				wakeups += float64(r.Stats.Wakeups)
				futile += float64(r.Stats.FutileWakeups)
			}
			if elapsed > 0 {
				b.ReportMetric(float64(ops)/elapsed.Seconds(), "ops/s")
			}
			if ops > 0 {
				b.ReportMetric(wakeups/float64(ops), "wakeups/op")
				b.ReportMetric(futile/float64(ops), "futile/op")
			}
		})
	}
}

// BenchmarkWakeToClaim prices the delivery interval the watchd daemon
// histograms: from the moment a relay notification is dequeued to the
// moment Claim returns holding the monitor. ns/op is the full
// publish-deliver-claim round trip; the reported p50/p99/p999 metrics
// are the claim interval alone, so the tail of the monitor re-entry
// (lock handoff plus Mesa re-validation) is visible separately from the
// mean. The fan-out axis shows how the claim tail grows with the number
// of concurrently armed handles on the monitor:
//
//	go test -bench 'WakeToClaim' -benchtime 2s
func BenchmarkWakeToClaim(b *testing.B) {
	for _, waiters := range []int{16, 256} {
		waiters := waiters
		b.Run(fmt.Sprintf("waiters=%d", waiters), func(b *testing.B) {
			var hist stats.Histogram
			b.ResetTimer()
			h := benchWakeToClaim(waiters, b.N)
			b.StopTimer()
			hist.Merge(&h)
			if hist.Count() != uint64(b.N) {
				b.Fatalf("recorded %d observations, want %d", hist.Count(), b.N)
			}
			b.ReportMetric(float64(hist.P50()), "p50-ns")
			b.ReportMetric(float64(hist.P99()), "p99-ns")
			b.ReportMetric(float64(hist.P999()), "p999-ns")
		})
	}
}

// BenchmarkAblationTagKinds isolates the relay search cost by predicate
// shape: an equivalence-taggable predicate (hash probe), a threshold-
// taggable one (heap root), and an untaggable one (exhaustive scan).
func BenchmarkAblationTagKinds(b *testing.B) {
	shapes := []struct{ name, pred string }{
		{"equivalence", "x == k"},
		{"threshold", "x >= k"},
		{"none", "x * x >= k"},
	}
	for _, sh := range shapes {
		sh := sh
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchTagShape(b, sh.pred)
			}
		})
	}
}

// BenchmarkRelayIdleGroups prices the relay search per layer of its
// work. One op is one Enter/Exit on a monitor that holds hot groups, each
// with one armed handle whose predicate never holds, beside idle groups,
// each a static predicate armed and cancelled once, so it keeps its group
// with no waiter. The hot=/idle= rows write nothing, so their exits search
// no group. Each write= row's op writes one cell, to the value it holds,
// before its Exit: one writes a cell that one of 512 hot groups reads,
// all a cell that every hot group reads outside its tag (a search of all
// 512 groups), and idle a cell that 2,048 idle groups read outside their
// tags (a fold that steps over them all and searches none). The fifo
// rows run 1 and 512 hot groups under a FIFO wake policy, each op writing
// z, which no predicate reads, so their exits search no group either.
// Rows of a few µs or less move 10–20% with code placement alone (on
// write=idle, the same fold-loop instructions at another alignment), so
// a gate compares their allocs/op exactly and their ns/op only in a wide
// band:
//
//	go test -run xxx -bench 'RelayIdleGroups' -benchmem
func BenchmarkRelayIdleGroups(b *testing.B) {
	type row struct {
		name              string
		hot, idle         int
		hotPred, idlePred string // formats over the group index
		write             string // the cell each op writes, or none
		pol               autosynch.Policy
	}
	const hotPred, idlePred = "s%d == 1", "t%d >= 1"
	var rows []row
	for _, c := range []struct{ hot, idle int }{{1, 0}, {512, 0}, {0, 2048}, {512, 2048}} {
		rows = append(rows, row{fmt.Sprintf("hot=%d/idle=%d", c.hot, c.idle), c.hot, c.idle, hotPred, idlePred, "", nil})
	}
	rows = append(rows,
		row{"write=one", 512, 0, hotPred, idlePred, "s0", nil},
		row{"write=all", 512, 0, "s%d == 1 && z >= 1", idlePred, "z", nil},
		row{"write=idle", 0, 2048, hotPred, "t%d >= 1 && z >= 1", "z", nil},
		row{"fifo/hot=1", 1, 0, hotPred, idlePred, "z", autosynch.FIFO},
		row{"fifo/hot=512", 512, 0, hotPred, idlePred, "z", autosynch.FIFO},
	)
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			m := autosynch.New(autosynch.WithPolicy(r.pol))
			cells := map[string]*autosynch.IntCell{"z": m.NewInt("z", 0)}
			handles := make([]*autosynch.Wait, r.hot)
			for i := range handles {
				name := fmt.Sprintf("s%d", i)
				cells[name] = m.NewInt(name, 0)
				handles[i] = m.MustCompile(fmt.Sprintf(r.hotPred, i)).Arm()
			}
			for j := 0; j < r.idle; j++ {
				m.NewInt(fmt.Sprintf("t%d", j), 0)
				m.MustCompile(fmt.Sprintf(r.idlePred, j)).Arm().Cancel()
			}
			if got := m.Waiting(); got != r.hot {
				b.Fatalf("Waiting() = %d, want %d", got, r.hot)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if c := cells[r.write]; c != nil {
				for i := 0; i < b.N; i++ {
					m.Enter()
					c.Set(0)
					m.Exit()
				}
			} else {
				for i := 0; i < b.N; i++ {
					m.Enter()
					m.Exit()
				}
			}
			b.StopTimer()
			for _, w := range handles {
				w.Cancel()
			}
		})
	}
}

// BenchmarkArmDeadlineCancel prices a handle deadline that never fires:
// one op arms a closure-predicate handle, gives it a deadline an hour
// out, and cancels it, on each mechanism that offers handles:
//
//	go test -run xxx -bench 'ArmDeadlineCancel' -benchmem
func BenchmarkArmDeadlineCancel(b *testing.B) {
	never := func() bool { return false }
	for _, c := range []struct {
		name string
		mech autosynch.Mechanism
	}{
		{"autosynch", autosynch.New()},
		{"baseline", autosynch.NewBaseline()},
		{"explicit", autosynch.NewExplicit()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.mech.ArmFunc(never).Timeout(time.Hour).Cancel()
			}
			if w := c.mech.Waiting(); w != 0 {
				b.Fatalf("Waiting() = %d after Cancel, want 0", w)
			}
		})
	}
}

// BenchmarkEntryReuse prices the reuse of a parked predicate entry: one
// op arms a handle on a never-true predicate, whose entry is parked on
// the inactive list, and cancels it, cycling through 128 keys. threshold
// is a consumer's x >= k; producer is x + k <= c || stop, whose entry
// holds a threshold and an equivalence tag. Only the handle allocates.
// fresh prices the build that reuse avoids: x >= k on a new key every op,
// once the inactive ring is full, so each op builds an entry in the
// storage of the one its park evicted, and allocates the handle, the
// identity string and the tag analysis:
//
//	go test -run xxx -bench 'EntryReuse' -benchmem -cpu 1
func BenchmarkEntryReuse(b *testing.B) {
	for _, c := range []struct {
		name, pred string
		keys       int // keys armed before the loop; the loop cycles through them, or goes on past them
		fresh      bool
	}{
		{"threshold", "x >= k", 128, false},
		{"producer", "x + k <= c || stop", 128, false},
		{"fresh", "x >= k", core.DefaultInactiveLimit, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := autosynch.New()
			m.NewInt("x", 0)
			m.NewInt("c", 0)
			m.NewBool("stop", false)
			p := m.MustCompile(c.pred)
			binds := make([]autosynch.Binding, c.keys)
			for i := range binds {
				binds[i] = autosynch.Bind("k", int64(i+1))
				p.Arm(binds[i]).Cancel()
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if c.fresh {
					p.Arm(autosynch.Bind("k", int64(c.keys+i+1))).Cancel()
				} else {
					p.Arm(binds[i%c.keys]).Cancel()
				}
				i++
			}
			s := m.Stats()
			switch {
			case !c.fresh && (s.Registrations != uint64(c.keys) || s.Evictions != 0):
				b.Fatalf("registrations/evictions = %d/%d, want %d/0", s.Registrations, s.Evictions, c.keys)
			case c.fresh && (s.Registrations != uint64(c.keys+i) || s.Evictions != uint64(i) || s.Reuses != 0):
				b.Fatalf("registrations/evictions/reuses = %d/%d/%d, want %d/%d/0", s.Registrations, s.Evictions, s.Reuses, c.keys+i, i)
			}
		})
	}
}

// BenchmarkSessionRenew prices watchd's delivery cycle: one op publishes
// a key watched by five sessions, each of which renews in OnEvent, and
// waits until the five renewals have returned. A renewal re-arms the
// handle its delivery claimed, in place:
//
//	go test -run xxx -bench 'SessionRenew' -benchmem -cpu 1
func BenchmarkSessionRenew(b *testing.B) {
	const sessions, key = 5, 3
	var renewed atomic.Int64
	d := watchd.New(watchd.Config{
		Keys: 16, Shards: 2, Dispatchers: 2,
		OnEvent: func(ev watchd.Event) {
			if err := ev.Session.Renew(); err != nil {
				b.Error(err)
			}
			renewed.Add(1)
		},
	})
	for range sessions {
		if _, err := d.Register(key); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	var want int64
	for b.Loop() {
		if _, err := d.Publish(key); err != nil {
			b.Fatal(err)
		}
		want += sessions
		for renewed.Load() < want {
			runtime.Gosched()
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParkRoundTrip prices the park→notify→unpark round trip of two
// blocking waits on cached predicates. A partner parks on x == k || stop
// for odd k; one op sets x to the partner's key and awaits the next, even,
// key, which the partner writes before it parks on its next odd key: two
// parks, each woken by a relay signal. After a warm-up over the 16 keys
// both parks reuse a parked entry and a spare waiter and allocate
// nothing. Like every row of a few µs, its ns/op moves 10–20% with code
// placement alone (see BenchmarkRelayIdleGroups), so a gate compares its
// allocs/op exactly and its ns/op only in a wide band:
//
//	go test -run xxx -bench 'ParkRoundTrip' -benchmem -cpu 1
func BenchmarkParkRoundTrip(b *testing.B) {
	const keys = 16
	m := autosynch.New()
	x := m.NewInt("x", 0)
	stop := m.NewBool("stop", false)
	p := m.MustCompile("x == k || stop")
	binds := make([][]autosynch.Binding, keys+1)
	for k := range binds {
		binds[k] = []autosynch.Binding{autosynch.Bind("k", int64(k))}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Enter()
		defer m.Exit()
		for k := 1; ; k = (k + 2) % keys {
			if err := p.Await(binds[k]...); err != nil {
				b.Error(err)
				return
			}
			if stop.Get() {
				return
			}
			x.Set(int64(k + 1))
		}
	}()
	testutil.WaitFor(b, 10*time.Second, 0, func() bool { return m.Waiting() == 1 }, "partner parked")
	k := 1
	round := func() {
		m.Enter()
		x.Set(int64(k))
		if err := p.Await(binds[k+1]...); err != nil {
			b.Error(err)
		}
		m.Exit()
		k = (k + 2) % keys
	}
	for range keys / 2 {
		round()
	}
	b.ReportAllocs()
	for b.Loop() {
		round()
	}
	m.Do(func() { stop.Set(true) })
	<-done
	if s := m.Stats(); s.Registrations != keys {
		b.Fatalf("registrations = %d, want %d: every park after the warm-up reuses an entry", s.Registrations, keys)
	}
}

// BenchmarkAblationInactiveList compares predicate-cache settings on the
// parameterized buffer, whose 128 batch predicates recur constantly.
func BenchmarkAblationInactiveList(b *testing.B) {
	for _, limit := range []int{0, 128} {
		limit := limit
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			var regs, reuses float64
			for i := 0; i < b.N; i++ {
				r := benchParamBBLimit(limit)
				regs += float64(r.Stats.Registrations)
				reuses += float64(r.Stats.Reuses)
			}
			b.ReportMetric(regs/float64(b.N), "registrations/run")
			b.ReportMetric(reuses/float64(b.N), "reuses/run")
		})
	}
}
