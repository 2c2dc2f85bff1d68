package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"time"

	"repro/internal/stats"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the runtime sees, each with a bound
// in BENCHMARK.json. They come only from untraced runs. Their timings are
// scaled to the nominal host by the reference's rate (reference.go).
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// unbounded are end-to-end metrics an untraced run prints without a bound:
// the latency percentiles, which spread between runs by more than any
// bound could allow (README.md, "End-to-end metrics"); the timings as the
// wall clock read them, and the reference's rate they were scaled by; and
// failed_ops_ratio, 0 on every correct run (the result line's failed and
// attempted carry it).
var unbounded = []metricDef{
	{"op_latency_p50_us", "us"},
	{"op_latency_p99_us", "us"},
	{"wall_throughput_ops_s", "ops/s"},
	{"wall_op_latency_p50_us", "us"},
	{"wall_op_latency_p99_us", "us"},
	{"wall_setup_s", "s"},
	{"bench.ref_takes_s", "1/s"},
	{"failed_ops_ratio", "ratio"},
}

// perLayer are the metrics of single layers, reported from traced runs.
// Names ending in _p50/_p99 and the self.* times come from spans; names
// ending in _per_* or _ratio are counter deltas over the window.
var perLayer = []metricDef{
	{"core.enter_ns_p50", "ns"},
	{"core.enter_ns_p99", "ns"},
	{"core.await_ns_p50", "ns"},
	{"core.await_ns_p99", "ns"},
	{"core.exit_ns_p50", "ns"},
	{"core.exit_ns_p99", "ns"},
	{"core.compile_ns_p50", "ns"},
	{"core.relay_calls_per_op", "1/op"},
	{"core.pred_evals_per_relay", "1/relay"},
	{"core.tag_checks_per_relay", "1/relay"},
	{"core.wakeups_per_op", "1/op"},
	{"core.futile_wakeup_ratio", "ratio"},
	{"core.signals_per_op", "1/op"},
	{"core.broadcasts_per_op", "1/op"},
	{"core.fast_path_ratio", "ratio"},
	{"core.futile_claim_ratio", "ratio"},
	{"core.wake_to_claim_p50_us", "us"},
	{"watchd.publish_ns_p50", "ns"},
	{"watchd.publish_ns_p99", "ns"},
	{"watchd.register_ns_p50", "ns"},
	{"watchd.register_ns_p99", "ns"},
	{"watchd.cancel_ns_p50", "ns"},
	{"watchd.renew_ns_p50", "ns"},
	{"watchd.deliveries_per_publish", "1/publish"},
	{"watchd.coalesced_ratio", "ratio"},
	{"watchd.rejected", "count"},
	{"codegen.gen_pred_ratio", "ratio"},
	{"runtime.allocs_per_op", "allocs/op"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.sched_latency_p50_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"bench.ref_takes_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.span_drops", "count"},
	{"trace.op_coverage_ratio", "ratio"},
	{"trace.residual_ns_per_op", "ns"},
	{"self.op_ns", "ns"},
	{"self.core.enter_ns", "ns"},
	{"self.core.await_ns", "ns"},
	{"self.core.exit_ns", "ns"},
	{"self.core.compile_ns", "ns"},
	{"self.watchd.publish_ns", "ns"},
	{"self.watchd.deliver_ns", "ns"},
	{"self.watchd.renew_ns", "ns"},
	{"self.watchd.register_ns", "ns"},
	{"self.watchd.cancel_ns", "ns"},
}

// reportedMetrics are the metrics of the final result line: the per-layer
// metrics in trace mode, else the bounded end-to-end metrics.
func reportedMetrics(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// computeMetrics derives every end-to-end and counter-based per-layer
// metric from the window's turns, its edge snapshots and the end-of-run
// state. Throughput is the ops of the window's measured turns over their
// seconds, and the latency percentiles come from the window's one
// histogram; these timings are then scaled to the nominal host by the
// reference's rate over the same window (setup_s was scaled by the
// reference's rate around each set-up). The per-layer counters are deltas
// between the window's edges, per op completed between them.
func computeMetrics(s0, s1 snapshot, fin counts, win turns, lat *latencyHist, wtc *stats.Histogram, heap uint64, setups, wallSetups []float64) map[string]float64 {
	speed := win.refRate() / refNominal
	tput := float64(win.ops) / win.loadSecs
	p50 := lat.quantile(0.50) / 1e3
	p99 := lat.quantile(0.99) / 1e3
	ops := float64(s1.c.ops - s0.c.ops)
	d := s1.c.core
	b := s0.c.core
	delta := func(after, before uint64) float64 { return float64(after - before) }
	relays := delta(d.RelayCalls, b.RelayCalls)
	wakeups := delta(d.Wakeups, b.Wakeups)
	return map[string]float64{
		"throughput_ops_s":       tput / speed,
		"op_latency_p50_us":      p50 * speed,
		"op_latency_p99_us":      p99 * speed,
		"live_heap_mb":           float64(heap) / (1 << 20),
		"setup_s":                median(setups),
		"wall_throughput_ops_s":  tput,
		"wall_op_latency_p50_us": p50,
		"wall_op_latency_p99_us": p99,
		"wall_setup_s":           median(wallSetups),
		"bench.ref_takes_s":      win.refRate(),

		"core.relay_calls_per_op":   ratio(relays, ops),
		"core.pred_evals_per_relay": ratio(delta(d.PredicateEvals, b.PredicateEvals), relays),
		"core.tag_checks_per_relay": ratio(delta(d.TagChecks, b.TagChecks), relays),
		"core.wakeups_per_op":       ratio(wakeups, ops),
		"core.futile_wakeup_ratio":  ratio(delta(d.FutileWakeups, b.FutileWakeups), wakeups),
		"core.signals_per_op":       ratio(delta(d.Signals, b.Signals), ops),
		"core.broadcasts_per_op":    ratio(delta(d.Broadcasts, b.Broadcasts), ops),
		"core.fast_path_ratio":      ratio(delta(d.FastPath, b.FastPath), delta(d.Awaits, b.Awaits)),
		"core.futile_claim_ratio":   ratio(delta(d.FutileClaims, b.FutileClaims), delta(d.Claims, b.Claims)),
		"core.wake_to_claim_p50_us": us(wtc.P50()),
		"codegen.gen_pred_ratio":    ratio(float64(fin.core.GenPreds), float64(fin.core.GenPreds+fin.core.GenMisses)),

		"watchd.deliveries_per_publish": ratio(ops, float64(s1.c.publishes-s0.c.publishes)),
		"watchd.coalesced_ratio":        ratio(delta(s1.c.coalesced, s0.c.coalesced), ops),
		"watchd.rejected":               delta(s1.c.rejected, s0.c.rejected),

		"runtime.allocs_per_op":        ratio(delta(s1.mallocs, s0.mallocs), ops),
		"runtime.alloc_bytes_per_op":   ratio(delta(s1.allocBytes, s0.allocBytes), ops),
		"runtime.gc_cycles_per_s":      float64(s1.numGC-s0.numGC) / win.loadSecs,
		"runtime.gc_pause_p99_us":      1e6 * histQuantile(&win.rt.gained[1], 0.99),
		"runtime.sched_latency_p50_us": 1e6 * histQuantile(&win.rt.gained[0], 0.50),
		"runtime.sched_latency_p99_us": 1e6 * histQuantile(&win.rt.gained[0], 0.99),
	}
}

// histQuantile is the q-quantile of a runtime histogram, reported as the
// upper edge of the bucket that holds it; 0 when it is empty.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, n := range h.Counts {
		cum += n
		if cum >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return 0
}

// ratio is a/b, or 0 when b is 0, so metrics a workload cannot exercise
// read 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
