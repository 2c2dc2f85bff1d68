// Command autosynch-bench regenerates the tables and figures of the
// paper's evaluation section (§6) as text, and runs any scenario of the
// problem registry directly.
//
// Usage:
//
//	autosynch-bench -list
//	autosynch-bench -experiment fig14 -trials 5 -ops 50000 -maxthreads 256
//	autosynch-bench -experiment all -quick -json
//	autosynch-bench -problem river-crossing -ops 50000
//	autosynch-bench -problem fifo-barrier -mech autosynch,explicit -threads 64
//	autosynch-bench -problem sharded-kv -threads 256 -shards 16
//	autosynch-bench -experiment scale-shards -ops 50000 -maxthreads 256
//	autosynch-bench -experiment wake-policy -trace wake.trace
//	autosynch-bench -analyze wake.trace
//	autosynch-bench -experiment scale-shards -gomaxprocs 1,2,4 -json
//
// With -json every experiment additionally writes BENCH_<experiment>.json
// (the harness.Report with its structured figure series), and -problem
// writes BENCH_problem_<name>.json with the per-mechanism measurements,
// so the perf trajectory is machine-readable; CI uploads the -quick -json
// run as an artifact.
//
// -trace records the run in the internal/obs flight recorder and dumps
// the merged event stream into a binary trace file; -analyze reloads such
// a file and prints the wake-chain reconstruction (chain lengths, relay
// hops, futile ratio, storm count) and the Table 1 phase totals its span
// events add up to (await, lock, relay, tag). -gomaxprocs repeats the run once per
// listed GOMAXPROCS value, suffixing JSON artifacts with -p<N>.
//
// Absolute runtimes will differ from the paper (goroutines on modern
// hardware vs. Java threads on 2009 Xeons); the shapes — which mechanism
// wins, how each scales with thread count, where the crossovers are — are
// the reproduction target. See EXPERIMENTS.md for recorded outputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/problems"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and scenarios, then exit")
		experiment = flag.String("experiment", "", "experiment id (see -list) or 'all'")
		problem    = flag.String("problem", "", "run one registered scenario directly (see -list)")
		mechList   = flag.String("mech", "", "comma-separated mechanisms for -problem (default: the scenario's lineup)")
		threads    = flag.Int("threads", 0, "thread count for -problem (default: the scenario's representative count)")
		shards     = flag.Int("shards", 0, "partition count for -problem runs of sharded scenarios (default: 8)")
		trials     = flag.Int("trials", 5, "trials per configuration (paper: 25)")
		drop       = flag.Int("drop", 1, "best/worst trials dropped per side (paper: 1)")
		ops        = flag.Int("ops", 20000, "operation budget per configuration point")
		maxThreads = flag.Int("maxthreads", 256, "top of the doubling thread axis")
		quick      = flag.Bool("quick", false, "small smoke configuration (1 trial, 2000 ops, 32 threads)")
		paper      = flag.Bool("paper", false, "the full §6.1 protocol (25 trials, drop best+worst)")
		jsonOut    = flag.Bool("json", false, "additionally write BENCH_<experiment>.json files with the structured results")
		traceFile  = flag.String("trace", "", "record the run in the flight recorder and write the event stream to this file")
		analyze    = flag.String("analyze", "", "analyze a trace file written by -trace, print wake-chain tables, then exit")
		procList   = flag.String("gomaxprocs", "", "comma-separated GOMAXPROCS values: repeat the run once per value (-p<N> json suffix)")
	)
	flag.Parse()

	// Conflicting flag combinations are usage errors, not silent
	// preferences: the run that would have happened is ambiguous.
	if *quick && *paper {
		usageError("-quick and -paper are mutually exclusive: pick one protocol")
	}
	if *experiment != "" && *problem != "" {
		usageError("-experiment and -problem are mutually exclusive: an experiment sweeps its own scenarios")
	}
	if *problem == "" {
		if *mechList != "" {
			usageError("-mech only applies to -problem runs")
		}
		if *threads != 0 {
			usageError("-threads only applies to -problem runs (experiments sweep a thread axis; see -maxthreads)")
		}
		if *shards != 0 {
			usageError("-shards only applies to -problem runs (the scale-shards experiment sweeps its own shard axis)")
		}
	}
	if *shards < 0 {
		usageError("-shards must be positive")
	}
	if *analyze != "" && (*experiment != "" || *problem != "" || *traceFile != "" || *procList != "") {
		usageError("-analyze is a standalone mode: it reads a recorded trace and runs nothing")
	}
	procs, err := parseProcs(*procList)
	if err != nil {
		usageError(err.Error())
	}
	if flag.NArg() > 0 {
		usageError(fmt.Sprintf("unexpected arguments: %s", strings.Join(flag.Args(), " ")))
	}

	if *analyze != "" {
		runAnalyze(*analyze)
		return
	}

	if *list {
		fmt.Println("experiments (-experiment):")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-26s %s\n", e.ID, e.Title)
		}
		fmt.Println("\nscenarios (-problem):")
		for _, s := range problems.Specs() {
			fig := s.Figure
			if fig == "" {
				fig = "beyond the paper"
			}
			sharded := ""
			if s.Sharded {
				sharded = " [sharded]" // accepts -shards
			}
			fmt.Printf("  %-26s %s [%s]%s\n", s.Name, s.CheckDesc, fig, sharded)
		}
		return
	}

	cfg := harness.Config{
		Protocol:   harness.Protocol{Trials: *trials, Drop: *drop},
		TotalOps:   *ops,
		MaxThreads: *maxThreads,
	}
	if *quick {
		cfg = harness.Config{Protocol: harness.Quick, TotalOps: 2000, MaxThreads: 32}
		cfg.Protocol.Trials = 1
	}
	if *paper {
		cfg.Protocol = harness.Paper
	}

	// The recorder wraps the whole run (every GOMAXPROCS pass): monitors
	// bind their rings at construction, so it must be active before any
	// scenario builds one.
	var rec *obs.Recorder
	if *traceFile != "" {
		rec = obs.Start(obs.DefaultRingSize)
	}

	for _, p := range procs {
		suffix := ""
		if p > 0 {
			runtime.GOMAXPROCS(p)
			suffix = fmt.Sprintf("-p%d", p)
			fmt.Printf("[GOMAXPROCS=%d]\n", p)
		}
		if *problem != "" {
			runProblem(*problem, *mechList, *threads, *shards, cfg, *jsonOut, suffix)
			continue
		}

		exp := *experiment
		if exp == "" {
			exp = "all"
		}
		ids := []string{exp}
		if exp == "all" {
			ids = harness.IDs()
		}
		for _, id := range ids {
			e, ok := harness.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			start := time.Now()
			rep := e.Run(cfg)
			fmt.Println(rep.Text)
			if *jsonOut {
				writeJSON("BENCH_"+e.ID+suffix+".json", rep)
			}
			fmt.Printf("[%s completed in %v]\n\n%s\n", e.ID, time.Since(start).Round(time.Millisecond),
				strings.Repeat("-", 72))
		}
	}

	if rec != nil {
		obs.Stop()
		events := rec.Events()
		if err := obs.WriteFile(*traceFile, events, rec.Drops()); err != nil {
			fmt.Fprintf(os.Stderr, "write trace %s: %v\n", *traceFile, err)
			os.Exit(1)
		}
		fmt.Printf("[wrote %s: %d events, %d rings, %d drops]\n",
			*traceFile, len(events), len(rec.Rings()), rec.Drops())
	}
}

// parseProcs parses the -gomaxprocs list; empty input means one pass at
// the inherited GOMAXPROCS (encoded as the single value 0).
func parseProcs(s string) ([]int, error) {
	if s == "" {
		return []int{0}, nil
	}
	var procs []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-gomaxprocs wants a comma-separated list of positive integers, got %q", part)
		}
		procs = append(procs, n)
	}
	return procs, nil
}

// runAnalyze loads a -trace file and prints the analysis: the wake-chain
// summary, the phase totals of its spans, and the chain-length
// distribution.
func runAnalyze(path string) {
	events, drops, err := obs.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "read trace %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d events\n", path, len(events))
	an := obs.Analyze(events, drops)
	fmt.Println(an.String())
	fmt.Print(obs.LengthTable(obs.Chains(events)))
}

// usageError reports a flag-combination error and exits with the
// conventional usage status.
func usageError(msg string) {
	fmt.Fprintf(os.Stderr, "autosynch-bench: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}

// writeJSON marshals v into path, failing loudly: a missing artifact is a
// broken contract with CI, not a cosmetic issue.
func writeJSON(path string, v any) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "marshal %s: %v\n", path, err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("[wrote %s]\n", path)
}

// problemReport is the -json shape of a single-scenario run: one
// measurement per mechanism at one configuration point.
type problemReport struct {
	Scenario string              `json:"scenario"`
	Threads  int                 `json:"threads"`
	Shards   int                 `json:"shards,omitempty"` // sharded scenarios only
	Ops      int                 `json:"ops"`
	Trials   int                 `json:"trials"`
	Check    string              `json:"check"`
	Results  []problemMechResult `json:"results"`
}

type problemMechResult struct {
	Mechanism   string              `json:"mechanism"`
	Measurement harness.Measurement `json:"measurement"`
}

// runProblem executes one registered scenario at a single configuration
// point and prints a per-mechanism result table.
func runProblem(name, mechList string, threads, shards int, cfg harness.Config, jsonOut bool, suffix string) {
	spec, ok := problems.Lookup(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario %q; use -list\n", name)
		os.Exit(2)
	}
	if shards != 0 && !spec.Sharded {
		usageError(fmt.Sprintf("-shards does not apply to scenario %q (not a sharded workload; see -list)", name))
	}
	if shards != 0 {
		problems.SetShardCount(shards)
	}
	mechs := spec.Mechanisms()
	if mechList != "" {
		mechs = nil
		for _, s := range strings.Split(mechList, ",") {
			m, err := problems.ParseMechanism(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v (choose from explicit, baseline, autosynch-t, autosynch)\n", err)
				os.Exit(2)
			}
			mechs = append(mechs, m)
		}
	}
	if threads <= 0 {
		threads = spec.DefaultThreads
	}
	shardNote := ""
	reportShards := 0
	if spec.Sharded {
		reportShards = problems.ShardCount()
		shardNote = fmt.Sprintf(", %d shards", reportShards)
	}
	fmt.Printf("%s: %d threads%s, %d ops, %d trials (check: %s)\n",
		spec.Name, threads, shardNote, cfg.TotalOps, cfg.Protocol.Trials, spec.CheckDesc)
	fmt.Printf("%-12s %12s %12s %10s %10s %10s %10s\n",
		"mechanism", "mean", "ops/s", "wakeups", "futile", "signals", "bcasts")
	report := problemReport{Scenario: spec.Name, Threads: threads, Shards: reportShards,
		Ops: cfg.TotalOps, Trials: cfg.Protocol.Trials, Check: spec.CheckDesc}
	for _, mech := range mechs {
		mech := mech
		m := cfg.Protocol.Measure(func() problems.Result {
			return spec.Runner(mech, threads, cfg.TotalOps)
		})
		if m.CheckFailed {
			fmt.Fprintf(os.Stderr, "%s/%s: conservation check FAILED\n", spec.Name, mech)
			os.Exit(1)
		}
		// The counters and the throughput both come from the final trial,
		// so numerator and denominator stay consistent even when a
		// scenario's op count varies with scheduling (OpsVary).
		r := m.Last
		fmt.Printf("%-12s %12s %12.0f %10d %10d %10d %10d\n",
			mech, time.Duration(m.MeanSeconds*float64(time.Second)).Round(time.Microsecond),
			r.Throughput(), r.Stats.Wakeups, r.Stats.FutileWakeups, r.Stats.Signals, r.Stats.Broadcasts)
		report.Results = append(report.Results, problemMechResult{Mechanism: mech.String(), Measurement: m})
	}
	if jsonOut {
		writeJSON("BENCH_problem_"+spec.Name+suffix+".json", report)
	}
}
