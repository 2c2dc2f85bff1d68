package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests run the benchmark as its own command: this test binary,
// re-executed with testMainEnv set, behaves as the benchmark's main.
const (
	testMainEnv  = "AUTOSYNCH_BENCH_TEST_MAIN"
	testBreakEnv = "AUTOSYNCH_BENCH_TEST_SKIP_DECREMENT"
)

func TestMain(m *testing.M) {
	if os.Getenv(testMainEnv) == "1" {
		skipDecrement = os.Getenv(testBreakEnv) == "1"
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runBench runs the benchmark with args in a fresh directory and returns
// its standard output and exit code.
func runBench(t *testing.T, env []string, args ...string) (string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(append(os.Environ(), testMainEnv+"=1"), env...)
	out, err := cmd.Output()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("run benchmark: %v", err)
	return "", 0
}

// parseLines maps "workload metric" to the value of every
// "workload metric value unit" line.
func parseLines(t *testing.T, out string) map[string]float64 {
	t.Helper()
	vals := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			vals[f[0]+" "+f[1]] = v
		}
	}
	return vals
}

// finalLine decodes the result object the benchmark prints last.
func finalLine(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, out)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want 4", len(res))
	}
	return res
}

type specMetric struct{ Name, Unit string }

// benchmarkSpec reads the workloads and metrics BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (workloads []string, e2e, layer []specMetric) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	workloads, e2e, layer := benchmarkSpec(t)
	if !slices.Equal(workloads, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", workloads, workloadNames())
	}
	for _, c := range []struct {
		spec []specMetric
		code []metricDef
	}{{e2e, endToEnd}, {layer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code %d", len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			if d := c.code[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], the code's %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	_, e2e, layer := benchmarkSpec(t)
	untraced := slices.Clone(e2e)
	for _, d := range unbounded {
		untraced = append(untraced, specMetric{Name: d.name})
	}
	for _, tc := range []struct {
		trace string
		names []specMetric
	}{{"0", untraced}, {"1", layer}} {
		t.Run("trace="+tc.trace, func(t *testing.T) {
			t.Parallel()
			out, code := runBench(t, nil, "-seconds", "0.3", "-trace", tc.trace)
			if code != 0 {
				t.Fatalf("exit code %d\n%s", code, out)
			}
			vals := parseLines(t, out)
			for _, w := range workloadNames() {
				for _, m := range tc.names {
					v, ok := vals[w+" "+m.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s %s: missing or not finite (%v)", w, m.Name, v)
					}
				}
			}
			if res := finalLine(t, out); string(res["correct"]) != "true" {
				t.Errorf("correct = %s", res["correct"])
			}
			if tc.trace == "0" {
				return
			}
			for _, w := range workloadNames() {
				if v := vals[w+" trace.span_drops"]; v != 0 {
					t.Errorf("%s: %v spans dropped", w, v)
				}
			}
			if v := vals["pbuf codegen.gen_pred_ratio"]; v != 1 {
				t.Errorf("pbuf gen_pred_ratio = %v, want 1", v)
			}
			if v := vals["cold-relay codegen.gen_pred_ratio"]; v != 0 {
				t.Errorf("cold-relay gen_pred_ratio = %v, want 0", v)
			}
		})
	}
}

func TestBrokenConservationFails(t *testing.T) {
	t.Parallel()
	for _, w := range []string{"pbuf", "pbuf-explicit"} {
		out, code := runBench(t, []string{testBreakEnv + "=1"}, "-workload", w, "-seconds", "0.3")
		if code == 0 {
			t.Errorf("%s: exit code 0 with a consumer skipping its decrement\n%s", w, out)
		}
		if v := parseLines(t, out)[w+" failed_ops_ratio"]; !(v > 0) {
			t.Errorf("%s: failed_ops_ratio = %v, want > 0", w, v)
		}
		if res := finalLine(t, out); string(res["correct"]) != "false" {
			t.Errorf("%s: correct = %s, want false", w, res["correct"])
		}
	}
}

// TestGeneratedPredsUpToDate regenerates zz_generated_preds.go from
// preds.manifest and fails on any difference. The repository's own
// generate-and-diff check runs over the root module only, which does not
// include this one.
func TestGeneratedPredsUpToDate(t *testing.T) {
	t.Parallel()
	got := filepath.Join(t.TempDir(), "zz_generated_preds.go")
	cmd := exec.Command("go", "run", "repro/cmd/minisynchc", "-manifest", "-pkg", "main", "-o", got, "preds.manifest")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("minisynchc: %v\n%s", err, out)
	}
	want, err := os.ReadFile("zz_generated_preds.go")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(got); err != nil || !bytes.Equal(b, want) {
		t.Errorf("zz_generated_preds.go is stale; run go generate in bench/ (read error: %v)", err)
	}
}

func TestGateHoldsEveryGoroutine(t *testing.T) {
	const n = 8
	g := newGate(n)
	var ops atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			for g.pass() {
				ops.Add(1)
			}
		}()
	}
	for range 20 {
		g.open()
		for start := ops.Load(); ops.Load() == start; {
			runtime.Gosched()
		}
		g.hold()
		held := ops.Load()
		time.Sleep(time.Millisecond)
		if got := ops.Load(); got != held {
			t.Fatalf("%d ops ran while the gate held every goroutine", got-held)
		}
	}
	g.stop()
	wg.Wait()
}

// TestReferenceAllocatesNothing guards the reference's promise not to
// start collections of its own.
func TestReferenceAllocatesNothing(t *testing.T) {
	r := startReference()
	defer r.stop()
	r.run(10 * time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	takes, _ := r.run(50 * time.Millisecond)
	runtime.ReadMemStats(&after)
	if takes == 0 {
		t.Fatal("the reference made no take")
	}
	if n := after.Mallocs - before.Mallocs; n*100 > uint64(takes) {
		t.Errorf("%d allocations in %d takes", n, takes)
	}
}

func TestLatencyQuantilesInterpolate(t *testing.T) {
	var h latencyHist
	for v := 1; v <= 100000; v++ {
		h.observe(time.Duration(v))
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want) > want/1000 {
			t.Errorf("quantile(%v) = %v, want %v within 0.1%%", q, got, want)
		}
	}
	if got := new(latencyHist).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 4}, 0.25, 4.75},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
