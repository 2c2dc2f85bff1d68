package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
)

// spanKind names the call a span covers. The benchmark records spans from
// its own files, around each call it makes into a layer.
type spanKind uint8

const (
	kOp spanKind = iota
	kEnter
	kAwait
	kExit
	kCompile
	kPublish
	kDeliver
	kRenew
	kRegister
	kCancel
	numKinds
)

var spanNames = [numKinds]string{
	"op", "core.enter", "core.await", "core.exit", "core.compile",
	"watchd.publish", "watchd.deliver", "watchd.renew", "watchd.register", "watchd.cancel",
}

const (
	// spanCapacity bounds a traced run's span buffer (16 MiB).
	spanCapacity = 1 << 19
	// minTraceEvery is the densest op sampling a traced run uses.
	minTraceEvery = 8
)

type span struct {
	start, end int64 // now() at the call's start and return
	parent     int32 // index of the enclosing span, -1 for a root
	op         int32 // index of the op root span, -1 outside any op
	kind       spanKind
}

// tracer is a preallocated span buffer. Goroutines claim slots with one
// atomic add and fill them without locks; spans past the capacity are
// dropped and counted.
type tracer struct {
	spans []span
	next  atomic.Int64
	drops atomic.Int64
	every atomic.Int64
}

func newTracer(capacity int) *tracer {
	t := &tracer{spans: make([]span, capacity)}
	t.every.Store(minTraceEvery)
	return t
}

// plan sets the op sampling so that the spans a window is expected to
// record fill at most half the buffer.
func (t *tracer) plan(expectedSpans float64) {
	every := int64(minTraceEvery)
	for float64(every)*float64(len(t.spans)/2) < expectedSpans {
		every *= 2
	}
	t.every.Store(every)
}

func (t *tracer) sampled(i int64) bool { return i%t.every.Load() == 0 }

// alloc claims a slot, or returns -1 and counts a drop when the buffer is
// full.
func (t *tracer) alloc() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.drops.Add(1)
		return -1
	}
	return int32(i)
}

func (t *tracer) put(i int32, s span) {
	if i >= 0 {
		t.spans[i] = s
	}
}

func (t *tracer) add(s span) int32 {
	i := t.alloc()
	t.put(i, s)
	return i
}

func (t *tracer) len() int { return int(min(t.next.Load(), int64(len(t.spans)))) }

// recorded returns the recorded spans. Call it only after every goroutine
// that records has ended: each fills every slot it claims before then.
func (t *tracer) recorded() []span { return t.spans[:t.len()] }

// addMetrics adds the span-derived per-layer metrics: duration
// percentiles per call, mean self time per span name (duration minus the
// part of it the span's children cover), and how much of the op root spans
// their children cover.
func (t *tracer) addMetrics(m map[string]float64) {
	spans := t.recorded()
	covered := childCoverage(spans)
	dur := make([]latencyHist, numKinds)
	var self, n [numKinds]int64
	var opTime, opCovered int64
	for i, s := range spans {
		d := s.end - s.start
		dur[s.kind].observe(time.Duration(d))
		self[s.kind] += d - covered[i]
		n[s.kind]++
		if s.kind == kOp {
			opTime += d
			opCovered += covered[i]
		}
	}
	pct := func(k spanKind, q float64) float64 { return dur[k].quantile(q) }
	m["core.enter_ns_p50"] = pct(kEnter, 0.50)
	m["core.enter_ns_p99"] = pct(kEnter, 0.99)
	m["core.await_ns_p50"] = pct(kAwait, 0.50)
	m["core.await_ns_p99"] = pct(kAwait, 0.99)
	m["core.exit_ns_p50"] = pct(kExit, 0.50)
	m["core.exit_ns_p99"] = pct(kExit, 0.99)
	m["core.compile_ns_p50"] = pct(kCompile, 0.50)
	m["watchd.publish_ns_p50"] = pct(kPublish, 0.50)
	m["watchd.publish_ns_p99"] = pct(kPublish, 0.99)
	m["watchd.register_ns_p50"] = pct(kRegister, 0.50)
	m["watchd.register_ns_p99"] = pct(kRegister, 0.99)
	m["watchd.cancel_ns_p50"] = pct(kCancel, 0.50)
	m["watchd.renew_ns_p50"] = pct(kRenew, 0.50)
	for k := range numKinds {
		m["self."+spanNames[k]+"_ns"] = ratio(float64(self[k]), float64(n[k]))
	}
	m["trace.span_drops"] = float64(t.drops.Load())
	m["trace.op_coverage_ratio"] = ratio(float64(opCovered), float64(opTime))
	m["trace.residual_ns_per_op"] = ratio(float64(opTime-opCovered), float64(n[kOp]))
}

// childCoverage returns, per span, how much of its interval the union of
// its direct children covers. Children running on other goroutines (a
// delivery under its publish) count only inside the parent's interval.
func childCoverage(spans []span) []int64 {
	var kids []int32
	for i, s := range spans {
		if s.parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	slices.SortFunc(kids, func(a, b int32) int {
		sa, sb := spans[a], spans[b]
		return cmp.Or(cmp.Compare(sa.parent, sb.parent), cmp.Compare(sa.start, sb.start))
	})
	covered := make([]int64, len(spans))
	for j := 0; j < len(kids); {
		p := spans[kids[j]].parent
		cur, end := spans[p].start, spans[p].end
		var cov int64
		for ; j < len(kids) && spans[kids[j]].parent == p; j++ {
			c := spans[kids[j]]
			lo, hi := max(c.start, cur), min(c.end, end)
			if hi > lo {
				cov += hi - lo
				cur = hi
			}
		}
		covered[p] = cov
	}
	return covered
}

// dump writes the spans as CSV, one span per line:
// kind,op,parent,start_ns,end_ns (indices refer to line order).
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	w.WriteString("kind,op,parent,start_ns,end_ns\n")
	var line []byte
	for _, s := range t.recorded() {
		line = append(line[:0], spanNames[s.kind]...)
		for _, v := range []int64{int64(s.op), int64(s.parent), s.start, s.end} {
			line = append(line, ',')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
