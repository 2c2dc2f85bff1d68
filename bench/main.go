// Command bench is the repository benchmark. It runs four single-core
// workloads over the autosynch runtime, each in its own child process, and
// prints the end-to-end metrics of every run; with -trace 1 the runs are
// traced and print the per-layer metrics instead. Every run checks its
// results, and the command exits non-zero when a check fails. See
// README.md for the workloads, the metrics and the run rules.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -seed 1                       # every workload once
//	bash bench/run.sh -workload pbuf -seconds 30    # one workload
//	bash bench/run.sh -workload watch -trace 1      # per-layer metrics
//	bash bench/run.sh -runs 10 -out runs.json       # medians and quartiles
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a process started by the benchmark to run one workload.
const childEnv = "AUTOSYNCH_BENCH_CHILD"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	runs     int
	out      string
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the measured window of one run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 traces the runs and prints per-layer metrics")
	fs.IntVar(&o.runs, "runs", 1, "repeat each workload this many times, alternating the order")
	fs.StringVar(&o.out, "out", "", "also write every run's results to this JSON file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if o.workload != "all" && lookupWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want %s or all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if !(o.seconds > 0) || o.seconds > 600 {
		return o, fmt.Errorf("-seconds %v out of range (0, 600]", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if o.runs < 1 {
		return o, fmt.Errorf("-runs %d: want at least 1", o.runs)
	}
	return o, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if os.Getenv(childEnv) == "1" {
		return runChild(o, stdout, stderr)
	}
	return runParent(o, stdout, stderr)
}

func runParent(o options, stdout, stderr io.Writer) int {
	// An interrupted benchmark kills and waits for its running child.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	names := workloadNames()
	if o.workload != "all" {
		names = []string{o.workload}
	}
	var records []*childResult
	for r := 0; r < o.runs; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			res, err := runChildProcess(ctx, o, name, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			printRun(stdout, res)
			records = append(records, res)
		}
	}

	summary := summarize(names, records, o.trace == 1)
	if o.runs > 1 {
		printSummary(stdout, names, summary, o.trace == 1)
	}
	if o.out != "" {
		if err := writeJSON(o.out, map[string]any{
			"seed": o.seed, "seconds": o.seconds, "runs": records, "summary": summary,
		}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}

	final := struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]metricReport `json:"metrics"`
	}{Metrics: map[string]metricReport{}}
	for _, res := range records {
		final.Attempted += res.Attempted
		final.Failed += res.Failed
	}
	final.Correct = final.Failed == 0
	for _, name := range names {
		for _, d := range reportedMetrics(o.trace == 1) {
			key := d.name
			if len(names) > 1 {
				key = name + "." + d.name
			}
			final.Metrics[key] = metricReport{Value: summary[name][d.name].Median, Unit: d.unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

type metricReport struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChildProcess starts this executable as a child running one workload,
// waits for it, and parses the result it prints as its last line. A child
// whose checks fail still returns its result; one that crashes, hangs or
// prints none is an error.
func runChildProcess(ctx context.Context, o options, name string, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own executable: %w", err)
	}
	// The budget covers set-up, warm-up, the window, and teardown with its
	// settle deadline; a child past it is killed and the run fails.
	budget := time.Duration(o.seconds*float64(time.Second)) + 2*time.Minute
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("child killed (budget %v): %w", budget, err)
	}
	res, parseErr := parseChildResult(out.Bytes())
	if parseErr != nil {
		if runErr != nil {
			return nil, fmt.Errorf("child failed: %w", runErr)
		}
		return nil, parseErr
	}
	return res, nil
}

func parseChildResult(out []byte) (*childResult, error) {
	out = bytes.TrimSpace(out)
	if len(out) == 0 {
		return nil, errors.New("child printed no result")
	}
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var res childResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parse child result: %w", err)
	}
	return &res, nil
}

// printRun prints one line per metric: workload, name, value, unit; the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func printRun(w io.Writer, res *childResult) {
	defs := append(slices.Clone(endToEnd), unbounded...)
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		printMetric(w, res.Workload, d.name, res.Metrics[d.name], d.unit)
	}
	printMetric(w, res.Workload, "latency_samples", float64(res.Samples), "count")
	for _, f := range res.Failures {
		fmt.Fprintf(w, "%s FAILED %s\n", res.Workload, f)
	}
}

func printMetric(w io.Writer, workload, name string, v float64, unit string) {
	fmt.Fprintf(w, "%s %s %s %s\n", workload, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

// stat summarizes one metric over the runs of one workload. Spread is
// max/min - 1; IQRShare is (Q3 - Q1) / median, the share a bound is judged
// against.
type stat struct {
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Spread   float64 `json:"spread"`
	IQRShare float64 `json:"iqr_share"`
	N        int     `json:"n"`
}

func summarize(names []string, records []*childResult, traced bool) map[string]map[string]stat {
	out := map[string]map[string]stat{}
	for _, name := range names {
		out[name] = map[string]stat{}
		for _, d := range reportedMetrics(traced) {
			var xs []float64
			for _, res := range records {
				if res.Workload == name {
					xs = append(xs, res.Metrics[d.name])
				}
			}
			out[name][d.name] = summarizeValues(xs)
		}
	}
	return out
}

func summarizeValues(xs []float64) stat {
	s := slices.Sorted(slices.Values(xs))
	st := stat{N: len(s), Min: s[0], Max: s[len(s)-1], Median: quantile(s, 0.5)}
	st.Q1, st.Q3 = quartiles(s)
	if st.Min > 0 {
		st.Spread = st.Max/st.Min - 1
	}
	st.IQRShare = ratio(st.Q3-st.Q1, st.Median)
	return st
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the rule the benchmark's bounds are checked with.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// quantile is the linear-interpolation quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func printSummary(w io.Writer, names []string, summary map[string]map[string]stat, traced bool) {
	for _, name := range names {
		for _, d := range reportedMetrics(traced) {
			s := summary[name][d.name]
			fmt.Fprintf(w, "summary %s %s median=%s q1=%s q3=%s iqr_share=%.4f spread=%.4f n=%d %s\n",
				name, d.name, fmtFloat(s.Median), fmtFloat(s.Q1), fmtFloat(s.Q3), s.IQRShare, s.Spread, s.N, d.unit)
		}
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}
