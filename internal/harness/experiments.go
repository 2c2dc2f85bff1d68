package harness

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/problems"
	"repro/internal/stats"
)

// Config scales an experiment run. The paper's absolute runtimes (tens of
// seconds per point on 2009-era Xeons) are not the target — the shapes
// are — so TotalOps defaults to a size that finishes in seconds per point
// and can be raised for higher fidelity.
type Config struct {
	Protocol   Protocol
	TotalOps   int // operation budget per configuration point
	MaxThreads int // upper end of the doubling x-axis
}

// DefaultConfig is used by cmd/autosynch-bench without flags.
func DefaultConfig() Config {
	return Config{Protocol: Protocol{Trials: 5, Drop: 1}, TotalOps: 20000, MaxThreads: 256}
}

// Experiment is one reproducible unit: a figure or table of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) Report
}

// Experiments lists every experiment: the paper's figures and tables in
// paper order, the ablations, and one generic thread sweep per registered
// scenario (prob-<name>), so any workload added to problems.Registry is
// immediately reproducible from the CLI. IDs match the EXPERIMENTS.md
// index.
func Experiments() []Experiment {
	exps := []Experiment{
		{"fig8", "Bounded-buffer runtime vs. #producers+consumers (Fig. 8)", Fig8},
		{"fig9", "H2O runtime vs. #H-atom threads (Fig. 9)", Fig9},
		{"fig10", "Sleeping-barber runtime vs. #customers (Fig. 10)", Fig10},
		{"fig11", "Round-robin access runtime vs. #threads (Fig. 11)", Fig11},
		{"fig12", "Readers/writers runtime vs. #writers/#readers (Fig. 12)", Fig12},
		{"fig13", "Dining-philosophers runtime vs. #philosophers (Fig. 13)", Fig13},
		{"fig14", "Parameterized bounded-buffer runtime vs. #consumers (Fig. 14)", Fig14},
		{"fig15", "Parameterized bounded-buffer context switches (Fig. 15)", Fig15},
		{"table1", "CPU-usage breakdown, round-robin with 128 threads (Table 1)", Table1},
		{"abl-tags", "Ablation: relay cost by tag kind (equivalence/threshold/none)", AblationTagKinds},
		{"abl-inactive", "Ablation: inactive-list limit vs. registration churn", AblationInactiveList},
		{"abl-compile", "Ablation: string Await vs compiled AwaitPred wait-path overhead", AblationCompiledPredicates},
		{"scale-shards", "Scaling: sharded-kv runtime vs shard count at fixed goroutines", ScaleShards},
		{"sel-fanout", "Selective waiting: cost per delivered item vs fan-out (Select / reflect handles / goroutine-per-guard)", SelectFanout},
		{"watchd", "Watch service soak: wake-to-claim latency percentiles vs standing sessions", WatchdSoak},
		{"wake-policy", "Wake policies: wait-latency percentiles and starvation spread (FIFO/LIFO/priority)", WakePolicy},
	}
	return append(exps, ProblemExperiments()...)
}

// ProblemExperiments builds one runtime-sweep experiment per registered
// scenario, iterating problems.Registry instead of a hand-maintained
// list.
func ProblemExperiments() []Experiment {
	var exps []Experiment
	for _, spec := range problems.Specs() {
		spec := spec
		title := fmt.Sprintf("Scenario sweep: %s runtime vs. #threads", spec.Name)
		if spec.Figure != "" {
			title += fmt.Sprintf(" (cf. %s)", spec.Figure)
		}
		exps = append(exps, Experiment{
			ID:    "prob-" + spec.Name,
			Title: title,
			Run:   func(cfg Config) Report { return ProblemSweep(spec, cfg) },
		})
	}
	return exps
}

// ProblemSweep renders the generic figure for one scenario: mean runtime
// per mechanism over a doubling thread axis.
func ProblemSweep(spec problems.Spec, cfg Config) Report {
	xs := doubling(2, cfg.MaxThreads)
	series, lat := sweep(cfg.Protocol, spec.Runner, spec.Mechanisms(), xs, cfg.TotalOps, meanSeconds)
	f := Figure{
		ID: "prob-" + spec.Name, Title: spec.Name, XLabel: "# threads",
		YLabel: "runtime (seconds)", XS: xs,
		Series: series,
		Notes:  []string{"check: " + spec.CheckDesc},
	}
	return f.reportLatency(lat)
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// spec fetches a registered scenario; the figure generators draw their
// runners and mechanism lineups from the registry (the paper drops the
// baseline from Fig. 11–13 as off-scale and compares only explicit vs.
// AutoSynch in Fig. 14–15 — encoded in each scenario's Spec.Mechs).
func spec(name string) problems.Spec { return problems.MustLookup(name) }

// Fig8 reproduces the bounded-buffer series.
func Fig8(cfg Config) Report {
	s := spec("bounded-buffer")
	xs := doubling(2, cfg.MaxThreads)
	series, lat := sweep(cfg.Protocol, s.Runner, s.Mechanisms(), xs, cfg.TotalOps, meanSeconds)
	f := Figure{
		ID: "fig8", Title: "bounded-buffer problem", XLabel: "# producers/consumers",
		YLabel: "runtime (seconds)", XS: xs,
		Series: series,
		Notes: []string{
			"expected shape: baseline grows with thread count; explicit, autosynch-t and autosynch stay comparable (constant number of shared predicates).",
		},
	}
	return f.reportLatency(lat)
}

// Fig9 reproduces the H2O series.
func Fig9(cfg Config) Report {
	s := spec("h2o")
	xs := doubling(2, cfg.MaxThreads)
	series, lat := sweep(cfg.Protocol, s.Runner, s.Mechanisms(), xs, cfg.TotalOps, meanSeconds)
	f := Figure{
		ID: "fig9", Title: "H2O problem (one oxygen thread)", XLabel: "# H-atom threads",
		YLabel: "runtime (seconds)", XS: xs,
		Series: series,
		Notes: []string{
			"expected shape: baseline degrades sharply; the other three stay comparable.",
		},
	}
	return f.reportLatency(lat)
}

// Fig10 reproduces the sleeping-barber series.
func Fig10(cfg Config) Report {
	s := spec("sleeping-barber")
	xs := doubling(2, cfg.MaxThreads)
	series, lat := sweep(cfg.Protocol, s.Runner, s.Mechanisms(), xs, cfg.TotalOps, meanSeconds)
	f := Figure{
		ID: "fig10", Title: "sleeping barber problem", XLabel: "# customers",
		YLabel: "runtime (seconds)", XS: xs,
		Series: series,
		Notes: []string{
			"expected shape: all four comparable — the baseline's broadcasts rarely wake threads whose condition is false here (§6.4).",
		},
	}
	return f.reportLatency(lat)
}

// Fig11 reproduces the round-robin series.
func Fig11(cfg Config) Report {
	s := spec("round-robin")
	xs := doubling(2, cfg.MaxThreads)
	series, lat := sweep(cfg.Protocol, s.Runner, s.Mechanisms(), xs, cfg.TotalOps, meanSeconds)
	f := Figure{
		ID: "fig11", Title: "round-robin access pattern", XLabel: "# threads",
		YLabel: "runtime (seconds)", XS: xs,
		Series: series,
		Notes: []string{
			"expected shape: explicit steady; autosynch-t grows with thread count (linear predicate scan); autosynch within a small factor of explicit and steady.",
			"baseline omitted as in the paper (off scale).",
		},
	}
	return f.reportLatency(lat)
}

// Fig12 reproduces the readers/writers series. The x-axis doubles the
// writer count with five readers per writer (2/10 … 64/320).
func Fig12(cfg Config) Report {
	s := spec("readers-writers")
	maxW := cfg.MaxThreads / 4
	if maxW < 2 {
		maxW = 2
	}
	if maxW > 64 {
		maxW = 64
	}
	xs := doubling(2, maxW)
	series, lat := sweep(cfg.Protocol, s.Runner, s.Mechanisms(), xs, cfg.TotalOps, meanSeconds)
	f := Figure{
		ID: "fig12", Title: "readers/writers problem (ticket order)", XLabel: "# writers (readers = 5x)",
		YLabel: "runtime (seconds)", XS: xs,
		Series: series,
		Notes: []string{
			"expected shape: explicit steady; autosynch-t grows; autosynch approaches explicit as the thread count grows (tag maintenance amortizes).",
		},
	}
	return f.reportLatency(lat)
}

// Fig13 reproduces the dining-philosophers series.
func Fig13(cfg Config) Report {
	s := spec("dining-philosophers")
	xs := doubling(2, cfg.MaxThreads)
	series, lat := sweep(cfg.Protocol, s.Runner, s.Mechanisms(), xs, cfg.TotalOps, meanSeconds)
	f := Figure{
		ID: "fig13", Title: "dining philosophers problem", XLabel: "# philosophers",
		YLabel: "runtime (seconds)", XS: xs,
		Series: series,
		Notes: []string{
			"expected shape: explicit's edge stays small — each philosopher competes with two neighbours regardless of table size (§6.4).",
		},
	}
	return f.reportLatency(lat)
}

// Fig14 reproduces the parameterized bounded-buffer runtime series.
func Fig14(cfg Config) Report {
	s := spec("parameterized-buffer")
	xs := doubling(2, cfg.MaxThreads)
	series, lat := sweep(cfg.Protocol, s.Runner, s.Mechanisms(), xs, cfg.TotalOps, meanSeconds)
	f := Figure{
		ID: "fig14", Title: "parameterized bounded-buffer (signalAll required in explicit)", XLabel: "# consumers",
		YLabel: "runtime (seconds)", XS: xs,
		Series: series,
		Notes: []string{
			"expected shape: explicit degrades as consumers multiply (broadcast storms); autosynch stays flat and wins big at the right end (paper: 26.9x at 256).",
		},
	}
	return f.reportLatency(lat)
}

// Fig15 reproduces the context-switch counts for the same workload. The
// repo counts wake-ups (goroutine unpark→park round trips) as the
// context-switch proxy.
func Fig15(cfg Config) Report {
	s := spec("parameterized-buffer")
	xs := doubling(2, cfg.MaxThreads)
	series, lat := sweep(cfg.Protocol, s.Runner, s.Mechanisms(), xs, cfg.TotalOps,
		func(m Measurement) float64 { return float64(m.Last.Stats.ContextSwitches()) / 1000 })
	f := Figure{
		ID: "fig15", Title: "parameterized bounded-buffer context switches", XLabel: "# consumers",
		YLabel: "wake-ups (K)", XS: xs,
		Series: series,
		Notes: []string{
			"expected shape: explicit wake-ups grow steeply with consumers; autosynch stays near-flat (paper: ~2.7M vs ~5.4K at 256).",
		},
	}
	return f.reportLatency(lat)
}

// Table1 reproduces the CPU-usage breakdown for the round-robin pattern
// with 128 threads: time in await, lock acquisition, relaySignal, and tag
// management, per mechanism, read from the flight recorder's spans (see
// Table1Run). Each row reports the ring drops and whether the ring
// wrapped, because a lossy window undercounts its phases.
func Table1(cfg Config) Report {
	mechs := []problems.Mechanism{problems.Explicit, problems.AutoSynchT, problems.AutoSynch}
	var sb strings.Builder
	fmt.Fprintf(&sb, "table1: CPU usage for the round-robin access pattern (%d threads, %d ops), from recorder spans\n", table1Threads, cfg.TotalOps)
	fmt.Fprintf(&sb, "%-12s %14s %14s %14s %14s %9s %7s %8s\n", "mechanism", "await", "lock", "relaySignal", "tagMgr", "relay %", "drops", "wrapped")
	for _, mech := range mechs {
		_, an, wrapped := Table1Run(mech, cfg.TotalOps)
		total := an.AwaitNs + an.LockNs + an.RelayNs + an.TagNs
		relayPct := 0.0
		if total > 0 {
			relayPct = 100 * float64(an.RelayNs) / float64(total)
		}
		fmt.Fprintf(&sb, "%-12s %14s %14s %14s %14s %8.2f%% %7d %8t\n",
			mech, time.Duration(an.AwaitNs), time.Duration(an.LockNs),
			time.Duration(an.RelayNs), time.Duration(an.TagNs), relayPct, an.Drops, wrapped)
	}
	sb.WriteString("expected shape: tagging cuts relaySignal time vs. autosynch-t (paper: −95%) and pays for it in tagMgr time.\n")
	return textReport("table1", sb.String())
}

// table1Threads is the thread count of the paper's Table 1 run, and
// table1EventsPerOp bounds the events one of its turns records, so a
// recorder Table1Run starts holds the whole run without wrapping. A turn
// that parks on an automatic monitor records nine at most: enter, arm,
// the tag span of activating its entry, a pre-park relay search, claim,
// the tag span of retiring the entry, exit, and the exit's relay search
// with its signal. Explicit records four.
const (
	table1Threads     = 128
	table1EventsPerOp = 10
)

// Table1Run is one row of Table 1: ops round-robin turns at 128 threads
// on mech, run under the flight recorder, and the analysis of the spans
// its monitor recorded. It uses the active recorder if there is one (the
// CLI's -trace); otherwise it starts one sized for the run and stops it
// afterwards. Only the rings the run created are analyzed, but the
// recorder is process-global: a monitor another goroutine builds during
// the run lands in the analysis too. wrapped reports whether a ring
// overwrote events, leaving the analysis only its latest window.
func Table1Run(mech problems.Mechanism, ops int) (r problems.Result, an obs.Analysis, wrapped bool) {
	rec := obs.Active()
	if rec == nil {
		rec = obs.Start(table1EventsPerOp * max(ops, table1Threads))
		defer obs.Stop()
	}
	before := len(rec.Rings())
	r = problems.RunRoundRobin(mech, table1Threads, ops)
	var events []obs.Event
	var drops uint64
	for _, ring := range rec.Rings()[before:] {
		events = append(events, ring.Snapshot()...)
		drops += ring.Drops()
		wrapped = wrapped || ring.Writes() > uint64(ring.Cap())
	}
	return r, obs.Analyze(events, drops), wrapped
}

// AblationTagKinds measures the relay search cost per tag kind: waiters
// with equivalence-taggable, threshold-taggable, and untaggable (None)
// predicates under identical traffic.
func AblationTagKinds(cfg Config) Report {
	type shape struct {
		name string
		pred string // predicate template over shared x and local k
	}
	shapes := []shape{
		{"equivalence", "x == k"},
		{"threshold", "x >= k"},
		{"none", "x * x >= k"}, // nonlinear in the shared variable: untaggable
	}
	waiters := 64
	if cfg.MaxThreads < waiters {
		waiters = cfg.MaxThreads
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "abl-tags: relay cost by predicate shape (%d waiters, %d ops)\n", waiters, cfg.TotalOps)
	fmt.Fprintf(&sb, "%-14s %12s %16s %14s %12s\n", "shape", "runtime", "predicateEvals", "tagChecks", "futile")
	for _, sh := range shapes {
		m := cfg.Protocol.Measure(func() problems.Result {
			return runTagShape(sh.pred, waiters, cfg.TotalOps)
		})
		s := m.Last.Stats
		fmt.Fprintf(&sb, "%-14s %12s %16d %14d %12d\n",
			sh.name, stats.FormatSeconds(m.MeanSeconds), s.PredicateEvals, s.TagChecks, s.FutileWakeups)
	}
	sb.WriteString("expected shape: equivalence ≤ threshold < none in predicate evaluations per signal.\n")
	return textReport("abl-tags", sb.String())
}

// runTagShape parks `waiters` unsatisfiable waiters of one predicate
// shape, then drives totalOps monitor operations that each store x's
// value 0 again: the relay search visits only groups whose cells were
// written, so the write makes every exit search the parked predicates,
// isolating the pruning cost of the tag kind. A done flag in the
// predicate releases everyone at the end.
func runTagShape(pred string, waiters, totalOps int) problems.Result {
	m := core.New()
	x := m.NewInt("x", 0) // stays 0: keys 1..waiters never satisfied
	done := m.NewBool("done", false)
	shaped := m.MustCompile(pred + " || done")
	finished := make(chan struct{}, waiters)
	for w := 1; w <= waiters; w++ {
		go func(k int64) {
			m.Enter()
			if err := m.AwaitPred(shaped, core.BindInt("k", k)); err != nil {
				panic(err)
			}
			m.Exit()
			finished <- struct{}{}
		}(int64(w))
	}
	for m.Stats().Awaits < uint64(waiters) {
		time.Sleep(time.Millisecond)
	}
	m.ResetStats()
	start := time.Now()
	for i := 0; i < totalOps; i++ {
		m.Do(func() { x.Set(0) })
	}
	elapsed := time.Since(start)
	st := m.Stats()
	m.Do(func() { done.Set(true) })
	for w := 0; w < waiters; w++ {
		<-finished
	}
	return problems.Result{Mechanism: problems.AutoSynch, Elapsed: elapsed,
		Stats: st, Ops: int64(totalOps)}
}

// AblationInactiveList sweeps the inactive-list limit on the
// readers/writers workload, whose ticket predicates are never reused —
// maximal churn — versus the parameterized buffer, whose batch predicates
// recur.
func AblationInactiveList(cfg Config) Report {
	limits := []int{0, 16, 128, 1024}
	var sb strings.Builder
	fmt.Fprintf(&sb, "abl-inactive: predicate cache effectiveness (parameterized buffer, %d consumers, %d ops)\n",
		16, cfg.TotalOps)
	fmt.Fprintf(&sb, "%-10s %12s %14s %10s %10s\n", "limit", "runtime", "registrations", "reuses", "evictions")
	for _, lim := range limits {
		m := cfg.Protocol.Measure(func() problems.Result {
			return runParamBBLimit(lim, 16, cfg.TotalOps)
		})
		s := m.Last.Stats
		fmt.Fprintf(&sb, "%-10d %12s %14d %10d %10d\n",
			lim, stats.FormatSeconds(m.MeanSeconds), s.Registrations, s.Reuses, s.Evictions)
	}
	sb.WriteString("expected shape: reuses rise and registrations collapse once the limit covers the key space (256 distinct batch predicates).\n")
	return textReport("abl-inactive", sb.String())
}

// runParamBBLimit is the parameterized-buffer auto workload with a custom
// inactive-list limit.
func runParamBBLimit(limit, consumers, totalOps int) problems.Result {
	m := core.New(core.WithInactiveLimit(limit))
	count := m.NewInt("count", 0)
	m.NewInt("cap", problems.ParamBufferCap)
	stop := m.NewBool("stop", false)
	hasRoom := m.MustCompile("count + k <= cap || stop")
	hasItems := m.MustCompile("count >= num")

	takes := totalOps / consumers
	if takes < 1 {
		takes = 1
	}
	start := time.Now()
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		rng := uint64(99)
		for {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			k := int64(rng%problems.MaxBatch) + 1
			m.Enter()
			if err := m.AwaitPred(hasRoom, core.BindInt("k", k)); err != nil {
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
	var doneCh = make(chan struct{}, consumers)
	for c := 0; c < consumers; c++ {
		go func(seed uint64) {
			rng := seed
			for i := 0; i < takes; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				num := int64(rng%problems.MaxBatch) + 1
				m.Enter()
				if err := m.AwaitPred(hasItems, core.BindInt("num", num)); err != nil {
					panic(err)
				}
				count.Add(-num)
				m.Exit()
			}
			doneCh <- struct{}{}
		}(uint64(c) + 7)
	}
	for c := 0; c < consumers; c++ {
		<-doneCh
	}
	m.Do(func() { stop.Set(true) })
	<-prodDone
	return problems.Result{Mechanism: problems.AutoSynch, Elapsed: time.Since(start),
		Stats: m.Stats(), Ops: int64(consumers * takes)}
}

// AblationCompiledPredicates isolates the per-wait overhead of the
// predicate API forms. The predicate is always true, so no wait ever
// parks and each operation pays exactly the bind-and-check path: the
// string form adds one predicate-cache lookup (hashing the source text)
// per wait, the compiled form skips it, the codegen form swaps the
// closure-tree evaluator for the minisynchc-generated monomorphic one
// (registered by internal/problems' zz_generated_preds.go, which this
// package links), and the closure form is the tag-opaque reference
// point. The interpreter arms opt out of generated dispatch with
// WithoutGenerated — the registration is process-global, so without the
// opt-out they would silently measure the generated path too.
func AblationCompiledPredicates(cfg Config) Report {
	const pred = "count + k <= cap || stop"
	type mode struct {
		name string
		opts []core.Option
		wait func(m *core.Monitor, p *core.Predicate, k int64) error
	}
	interpOnly := []core.Option{core.WithoutGenerated()}
	awaitString := func(m *core.Monitor, _ *core.Predicate, k int64) error {
		return m.Await(pred, core.BindInt("k", k))
	}
	awaitPred := func(m *core.Monitor, p *core.Predicate, k int64) error {
		return m.AwaitPred(p, core.BindInt("k", k))
	}
	modes := []mode{
		{"string", interpOnly, awaitString},
		{"compiled", interpOnly, awaitPred},
		{"codegen", nil, awaitPred},
		{"closure", interpOnly, func(m *core.Monitor, _ *core.Predicate, k int64) error {
			m.AwaitFunc(func() bool { return true })
			return nil
		}},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "abl-compile: per-wait API overhead on an always-true predicate (%d ops)\n", cfg.TotalOps)
	fmt.Fprintf(&sb, "%-10s %12s %12s %10s %5s\n", "mode", "runtime", "ns/op", "fastpath", "gen")
	for _, md := range modes {
		meas := cfg.Protocol.Measure(func() problems.Result {
			m := core.New(md.opts...)
			m.NewInt("count", 1)
			m.NewInt("cap", 1<<40)
			m.NewBool("stop", false)
			p := m.MustCompile(pred)
			if md.name == "codegen" && !p.Generated() {
				panic("abl-compile: codegen arm found no registered evaluator (is internal/problems linked?)")
			}
			start := time.Now()
			for i := 0; i < cfg.TotalOps; i++ {
				m.Enter()
				if err := md.wait(m, p, int64(i&1023)); err != nil {
					panic(err)
				}
				m.Exit()
			}
			elapsed := time.Since(start)
			return problems.Result{Mechanism: problems.AutoSynch, Elapsed: elapsed,
				Stats: m.Stats(), Ops: int64(cfg.TotalOps)}
		})
		nsPerOp := meas.MeanSeconds * 1e9 / float64(cfg.TotalOps)
		fmt.Fprintf(&sb, "%-10s %12s %12.1f %10d %5d\n",
			md.name, stats.FormatSeconds(meas.MeanSeconds), nsPerOp,
			meas.Last.Stats.FastPath, meas.Last.Stats.GenPreds)
	}
	sb.WriteString("expected shape: codegen < compiled < string (compiled-vs-string is the per-wait predicate-cache lookup; codegen-vs-compiled is the closure tree); see BenchmarkAwaitStringVsCompiled for the benchstat view.\n")
	return textReport("abl-compile", sb.String())
}

// ScaleShards sweeps the partition count of the sharded-kv scenario at a
// fixed goroutine count (the top of the configured thread axis): the
// beyond-the-paper scaling experiment. A single monitor takes all the
// lock traffic and each doubling of the shard count divides it, so
// runtime falls until the partitions outnumber the independent keys in
// flight. The relay search visits only the groups whose cells an exit
// wrote, so the standing per-pair sessions add no per-exit sweep to the
// single monitor. The 1-shard point is the single-core.Monitor reference
// the speedups are quoted against.
func ScaleShards(cfg Config) Report {
	threads := cfg.MaxThreads
	if threads < 8 {
		threads = 8
	}
	xs := []int{1, 2, 4, 8, 16}
	f := Figure{
		ID:     "scale-shards",
		Title:  fmt.Sprintf("sharded-kv: shard-count sweep at %d goroutines", threads),
		XLabel: "# shards", YLabel: "runtime (seconds)", XS: xs,
	}
	var lat stats.Histogram
	for _, mech := range []problems.Mechanism{problems.AutoSynch, problems.AutoSynchT} {
		mech := mech
		ser := Series{Label: mech.String()}
		for _, shards := range xs {
			shards := shards
			m := cfg.Protocol.Measure(func() problems.Result {
				return problems.RunShardedKVShards(mech, threads, cfg.TotalOps, shards)
			})
			val := m.MeanSeconds
			if m.CheckFailed {
				val = -1 // sentinel: conservation violated; must never happen
			}
			ser.Points = append(ser.Points, val)
			lat.Merge(&m.Latency)
		}
		f.Series = append(f.Series, ser)
	}
	if as := f.Series[0].Points; len(as) == len(xs) && as[0] > 0 && as[len(as)-1] > 0 {
		f.Notes = append(f.Notes, fmt.Sprintf(
			"autosynch speedup at %d shards vs the single monitor: %.2fx", xs[len(xs)-1], as[0]/as[len(as)-1]))
	}
	f.Notes = append(f.Notes,
		"expected shape: runtime falls as shards divide the lock traffic; the relay search visits only the groups an exit's writes touched, so on one core the gain is small. BenchmarkShardScaling is the go-test view.")
	return f.reportLatency(latPtr(lat))
}

// SelectFanout prices the three ways one goroutine can wait on N
// predicates across N distinct monitors, swept over the fan-out: the
// guarded-region Select (arms, parks once on a shared channel, claims,
// cancels the losers — the leak-free API unit), the hand-assembled
// persistent-handle loop over reflect.Select that the dispatcher
// scenario used before guards existed, and a parked goroutine per
// monitor. Each operation deposits one token on a rotating monitor and
// waits for its consumption, so the measured quantity is the end-to-end
// multiplexing cost per delivered item. BenchmarkSelect is the go-test
// view at fan-out 16.
func SelectFanout(cfg Config) Report {
	xs := []int{2, 8, 32, 128}
	ops := cfg.TotalOps
	f := Figure{
		ID:     "sel-fanout",
		Title:  "selective waiting: cost per delivered item vs fan-out",
		XLabel: "# guards (one monitor each)", YLabel: "ns/op", XS: xs,
	}
	var lat stats.Histogram
	for _, mode := range []string{"select-guards", "reflect-handles", "goroutine-per-guard"} {
		mode := mode
		ser := Series{Label: mode}
		for _, fan := range xs {
			fan := fan
			m := cfg.Protocol.Measure(func() problems.Result { return RunSelectFan(mode, fan, ops) })
			ser.Points = append(ser.Points, m.MeanSeconds*1e9/float64(ops))
			lat.Merge(&m.Latency)
		}
		f.Series = append(f.Series, ser)
	}
	f.Notes = append(f.Notes,
		"select-guards polls before arming, so a ready guard costs ~one Try; only a Select that actually parks pays the N arms and N-1 cancels of the leak-free unit;",
		"reflect-handles keeps N handles armed (hand-rolled, leak-prone, and O(N) inside reflect.Select on every delivery);",
		"goroutine-per-guard parks a goroutine per monitor — flat in N but a stack per waiter, see BenchmarkMultiplexedWaiters for where it loses.")
	return f.reportLatency(latPtr(lat))
}

// RunSelectFan is one sel-fanout point: fan monitors, totalOps rounds of
// deposit-then-consume through the given multiplexing mode
// ("select-guards", "reflect-handles", or "goroutine-per-guard").
// Check counts waiters still registered afterwards (must be 0).
// Exported so BenchmarkSelect drives the exact same harness — one copy
// of the re-arm and teardown protocols, as BenchmarkShardScaling does
// with problems.RunShardedKVShards.
func RunSelectFan(mode string, fan, totalOps int) problems.Result {
	type buf struct {
		m        *core.Monitor
		x        *core.IntCell
		stop     *core.BoolCell
		notEmpty *core.Predicate
	}
	bufs := make([]*buf, fan)
	for i := range bufs {
		m := core.New()
		bufs[i] = &buf{
			m:        m,
			x:        m.NewInt("x", 0),
			stop:     m.NewBool("stop", false),
			notEmpty: m.MustCompile("x >= 1"),
		}
	}
	produce := func(i int) {
		bf := bufs[i%fan]
		bf.m.Do(func() { bf.x.Add(1) })
	}
	var lat *stats.Histogram // bound here: the closure below shadows the package name
	stats := func(elapsed time.Duration) problems.Result {
		var agg core.Stats
		var leaked int64
		for _, bf := range bufs {
			agg = agg.Add(bf.m.Stats())
			leaked += int64(bf.m.Waiting())
			if h := bf.m.WaitLatency(); h != nil {
				if lat == nil {
					lat = h
				} else {
					lat.Merge(h)
				}
			}
		}
		return problems.Result{Mechanism: problems.AutoSynch, Elapsed: elapsed,
			Stats: agg, Ops: int64(totalOps), Check: leaked, Latency: lat}
	}

	switch mode {
	case "select-guards":
		cases := make([]core.Case, fan)
		for i, bf := range bufs {
			bf := bf
			cases[i] = bf.m.When(bf.notEmpty).Then(func() { bf.x.Add(-1) })
		}
		start := time.Now()
		for i := 0; i < totalOps; i++ {
			produce(i)
			if _, err := core.Select(cases...); err != nil {
				panic(err)
			}
		}
		return stats(time.Since(start))

	case "reflect-handles":
		handles := make([]*core.Wait, fan)
		cases := make([]reflect.SelectCase, fan)
		for i, bf := range bufs {
			handles[i] = bf.notEmpty.Arm()
			cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(handles[i].Ready())}
		}
		start := time.Now()
		for i := 0; i < totalOps; i++ {
			produce(i)
			for {
				idx, _, _ := reflect.Select(cases)
				if err := handles[idx].Claim(); err != nil {
					if err == core.ErrNotReady {
						cases[idx].Chan = reflect.ValueOf(handles[idx].Ready())
						continue
					}
					panic(err)
				}
				bufs[idx].x.Add(-1)
				bufs[idx].m.Exit()
				handles[idx] = bufs[idx].notEmpty.Arm()
				cases[idx].Chan = reflect.ValueOf(handles[idx].Ready())
				break
			}
		}
		elapsed := time.Since(start)
		for _, h := range handles {
			h.Cancel()
		}
		return stats(elapsed)

	case "goroutine-per-guard":
		ack := make(chan struct{}, fan)
		var wg sync.WaitGroup
		for _, bf := range bufs {
			wg.Add(1)
			g := bf.m.When(bf.m.MustCompile("x >= 1 || stop"))
			go func(bf *buf, g *core.Guard) {
				defer wg.Done()
				for {
					quit := false
					if err := g.Do(func() {
						if bf.stop.Get() {
							quit = true
							return
						}
						bf.x.Add(-1)
					}); err != nil {
						panic(err)
					}
					if quit {
						return
					}
					ack <- struct{}{}
				}
			}(bf, g)
		}
		start := time.Now()
		for i := 0; i < totalOps; i++ {
			produce(i)
			<-ack
		}
		elapsed := time.Since(start)
		for _, bf := range bufs {
			bf.m.Do(func() { bf.stop.Set(true) })
		}
		wg.Wait()
		return stats(elapsed)
	}
	panic("unknown sel-fanout mode " + mode)
}

// IDs returns all experiment IDs in paper order, for CLI listings.
func IDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}
