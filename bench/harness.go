package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	autosynch "repro"
	"repro/internal/core"
	"repro/internal/stats"
)

// Run rules shared by every workload.
const (
	setupRounds   = 5                      // set-ups per run; setup_s is their median
	setupRefTurn  = 50 * time.Millisecond  // reference turn before and after each set-up
	maxWarmup     = 2 * time.Second        // warm-up before the window, capped at the window's length
	blockLength   = 450 * time.Millisecond // one reference turn and one workload turn
	turnSettle    = 30 * time.Millisecond  // unmeasured start of each workload turn
	settleTimeout = 10 * time.Second
)

// spanDir receives the span dump of every traced run, relative to the
// working directory.
const spanDir = ".bench_build"

// A workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// autoSignal marks workloads that run only AutoSynch monitors, which
	// must never broadcast.
	autoSignal bool
	// spansPerIssue is about how many spans one traced issued op records;
	// it sizes the trace sampling.
	spansPerIssue float64
	setup         func(e *env) (instance, error)
}

// workloads are listed in BENCHMARK.json's order; README.md gives why each
// exists.
var workloads = []*workload{
	{
		name:          "pbuf",
		autoSignal:    true,
		spansPerIssue: 4,
		setup:         setupPbuf,
	},
	{
		name:          "pbuf-explicit",
		spansPerIssue: 4,
		setup:         setupPbufExplicit,
	},
	{
		name:          "cold-relay",
		autoSignal:    true,
		spansPerIssue: 4,
		setup:         setupColdRelay,
	},
	{
		name:          "watch",
		autoSignal:    true,
		spansPerIssue: 9,
		setup:         setupWatch,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instance is one built copy of a workload's state, built with its load
// held. resume releases the load; pause holds it again and returns once
// nothing the load started is still running; stop ends it, waits for
// every goroutine the load runs, and checks the results; close releases
// what is left and checks the teardown.
type instance interface {
	resume()
	pause()
	counts() counts
	stop(c *checker)
	wakeToClaim() *stats.Histogram
	close(c *checker)
}

// counts are a workload's cumulative counters.
type counts struct {
	ops       int64 // completed ops: takes, driver ops, or deliveries
	issued    int64 // ops the benchmark issued: takes, driver ops, or publishes, registers and cancels
	failed    int64 // issued ops that returned an error or a wrong result
	publishes int64
	rejected  uint64
	coalesced uint64
	core      core.Stats
}

// env is what a workload's set-up and load see of the run.
type env struct {
	seed      uint64
	block     atomic.Int32 // window block being measured, -1 outside the window
	lat       lockedHist   // op latency over the window
	tr        *tracer      // nil on untraced runs
	gcPercent int          // the collector's setting while the workload runs
}

func newEnv(seed uint64, traced bool) *env {
	e := &env{seed: seed}
	e.block.Store(-1)
	if traced {
		e.tr = newTracer(spanCapacity)
	}
	return e
}

// tracing returns the tracer while block is a traced one. A traced run
// records spans in its even blocks only, so its odd blocks give the
// untraced throughput that trace.overhead_ratio compares against.
func (e *env) tracing(block int32) *tracer {
	if block < 0 || block%2 == 1 {
		return nil
	}
	return e.tr
}

// lockedHist is the window's latency histogram. Every goroutine observes
// through one mutex: at GOMAXPROCS=1 only a preemption can contend it, and
// one histogram per goroutine would cost pbuf's 64 consumers megabytes of
// heap.
type lockedHist struct {
	mu sync.Mutex
	h  latencyHist
}

func (l *lockedHist) observe(d time.Duration) {
	l.mu.Lock()
	l.h.observe(d)
	l.mu.Unlock()
}

// collectorOn turns the collector on. It runs only while the workload
// does: between the workload's turns it is off, so a collection the
// workload started never takes the processor from the reference, and the
// turn lasts until that collection has finished.
func (e *env) collectorOn() { debug.SetGCPercent(e.gcPercent) }

// collectorOff turns the collector off once any collection still marking
// has finished.
func (e *env) collectorOff() { debug.SetGCPercent(-1) }

// rand returns the generator of one input stream; the same seed and
// stream always give the same values.
func (e *env) rand(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(e.seed, stream)) }

// compile compiles a predicate, recording a core.compile span on traced
// runs.
func (e *env) compile(m *autosynch.Monitor, src string) (*autosynch.Predicate, error) {
	t0 := now()
	p, err := m.Compile(src)
	if e.tr != nil {
		e.tr.add(span{start: t0, end: now(), parent: -1, op: -1, kind: kCompile})
	}
	return p, err
}

var clockBase = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start-up.
func now() int64 { return int64(time.Since(clockBase)) }

// checker collects correctness failures; each counts as one failed op.
type checker struct {
	failed int64
	msgs   []string
}

func (c *checker) expect(ok bool, format string, args ...any) {
	if !ok {
		c.fail(1, format, args...)
	}
}

func (c *checker) fail(n int64, format string, args ...any) {
	c.failed += n
	c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
}

// checkGoroutines fails unless the goroutine count falls back to base.
func checkGoroutines(c *checker, base int) {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	n := runtime.NumGoroutine()
	c.expect(n <= base, "%d goroutines leaked", n-base)
}

// gate holds a workload's load goroutines at the top of their loops, so
// that the workload and the reference can take turns on the one
// processor. It starts closed; stop releases the goroutines for good.
type gate struct {
	n     int // goroutines that pass the gate
	state atomic.Int32
	mu    sync.Mutex
	cond  *sync.Cond
	held  int // goroutines waiting at the gate; guarded by mu
}

const (
	gateClosed int32 = iota
	gateOpen
	gateStopped
)

func newGate(n int) *gate {
	g := &gate{n: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// wait is called by a load goroutine before each op. It returns at once
// while the gate is open, waits while it is closed, and reports false
// once the gate is stopped; held tells whether it had to wait.
func (g *gate) wait() (open, held bool) {
	switch g.state.Load() {
	case gateOpen:
		return true, false
	case gateStopped:
		return false, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.held++
	g.cond.Broadcast()
	for g.state.Load() == gateClosed {
		g.cond.Wait()
	}
	g.held--
	return g.state.Load() == gateOpen, true
}

func (g *gate) pass() bool {
	open, _ := g.wait()
	return open
}

func (g *gate) isOpen() bool { return g.state.Load() == gateOpen }

func (g *gate) set(state int32) {
	g.mu.Lock()
	g.state.Store(state)
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *gate) open() { g.set(gateOpen) }
func (g *gate) stop() { g.set(gateStopped) }

// hold closes the gate and returns once every goroutine waits at it.
func (g *gate) hold() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.state.Store(gateClosed)
	for g.held < g.n {
		g.cond.Wait()
	}
}

// loop is the closed-loop driver shared by pbuf, pbuf-explicit and
// cold-relay: workers pass gate before each op, count their completed
// ops, and leave when the gate stops. Each worker times every
// timeEvery-th of its ops in the window.
type loop struct {
	env       *env
	timeEvery int
	gate      *gate
	ops       atomic.Int64
	failed    atomic.Int64
	workers   sync.WaitGroup
}

func newLoop(e *env, timeEvery, workers int) *loop {
	l := &loop{env: e, timeEvery: timeEvery, gate: newGate(workers)}
	l.workers.Add(workers)
	return l
}

func (l *loop) resume() { l.gate.open() }
func (l *loop) pause()  { l.gate.hold() }

// halt stops the workers and waits for them.
func (l *loop) halt() {
	l.gate.stop()
	l.workers.Wait()
}

// opSpan times one closed-loop op. Inside the window every timed op feeds
// the latency histogram, and on traced runs every sampled op records an op
// root span plus one span per call into the runtime. Spans
// share their boundary timestamps, so the residual of the root span is the
// benchmark's own work between calls.
type opSpan struct {
	env   *env
	tr    *tracer
	root  int32
	t0    int64
	last  int64
	timed bool
}

func (l *loop) begin(i int) opSpan {
	o := opSpan{env: l.env, root: -1}
	block := l.env.block.Load()
	if block < 0 {
		return o
	}
	o.timed = i%l.timeEvery == 0
	if tr := l.env.tracing(block); tr != nil && tr.sampled(int64(i)) {
		if o.root = tr.alloc(); o.root >= 0 {
			o.tr = tr
		}
	}
	if o.timed || o.tr != nil {
		o.t0 = now()
		o.last = o.t0
	}
	return o
}

// mark closes the span of the call that just returned.
func (o *opSpan) mark(k spanKind) {
	if o.tr == nil {
		return
	}
	t := now()
	o.tr.add(span{start: o.last, end: t, parent: o.root, op: o.root, kind: k})
	o.last = t
}

// skip moves past benchmark work that belongs to no layer.
func (o *opSpan) skip() {
	if o.tr != nil {
		o.last = now()
	}
}

func (o *opSpan) end() {
	if !o.timed && o.tr == nil {
		return
	}
	t := o.last
	if o.tr == nil {
		t = now()
	}
	if o.timed {
		o.env.lat.observe(time.Duration(t - o.t0))
	}
	if o.tr != nil {
		o.tr.put(o.root, span{start: o.t0, end: t, parent: -1, op: o.root, kind: kOp})
	}
}

// snapshot is the state read at each edge of the measured window.
type snapshot struct {
	c          counts
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
}

func takeSnapshot(inst instance) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{c: inst.counts(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, numGC: ms.NumGC}
}

// runtimeHistNames are the runtime histograms the per-layer scheduling and
// GC pause metrics come from.
var runtimeHistNames = []string{"/sched/latencies:seconds", "/sched/pauses/total/gc:seconds"}

// runtimeHists adds up what the runtime histograms gain during the
// workload's turns only, so the reference's scheduling stays out of them.
type runtimeHists struct {
	samples []metrics.Sample
	before  [][]uint64
	gained  []metrics.Float64Histogram
}

func newRuntimeHists() *runtimeHists {
	r := &runtimeHists{
		samples: make([]metrics.Sample, len(runtimeHistNames)),
		before:  make([][]uint64, len(runtimeHistNames)),
		gained:  make([]metrics.Float64Histogram, len(runtimeHistNames)),
	}
	for i, name := range runtimeHistNames {
		r.samples[i].Name = name
	}
	return r
}

func (r *runtimeHists) begin() {
	metrics.Read(r.samples)
	for i := range r.samples {
		r.before[i] = append(r.before[i][:0], r.samples[i].Value.Float64Histogram().Counts...)
	}
}

func (r *runtimeHists) end() {
	metrics.Read(r.samples)
	for i := range r.samples {
		h, g := r.samples[i].Value.Float64Histogram(), &r.gained[i]
		if g.Counts == nil {
			g.Buckets = slices.Clone(h.Buckets)
			g.Counts = make([]uint64, len(h.Counts))
		}
		for j, n := range h.Counts {
			g.Counts[j] += n - r.before[i][j]
		}
	}
}

// turns is what alternate measured.
type turns struct {
	loadSecs    float64
	ops, issued int64
	rates       []float64 // each workload turn's ops per second
	refRates    []float64 // each reference turn's takes per second
	rt          *runtimeHists
}

// refRate is the reference's rate over the turns, in takes per second: the
// median of its turns, which one turn the runtime disturbed does not move.
func (t turns) refRate() float64 { return median(t.refRates) }

// alternate runs the reference and the workload in turns for about d, in
// blocks of about blockLength: a reference turn of a third of the block,
// then a workload turn. A workload turn is measured from turnSettle after
// resume, once the load released at the gate has spread out again, until
// pause has held every goroutine and the collection the turn started, if
// any, has finished. When record is set the measured parts of the workload
// turns are the window's blocks.
func alternate(inst instance, ref *reference, e *env, d time.Duration, record bool) turns {
	n := max(2, int(d/blockLength))
	refTurn := d / time.Duration(3*n)
	loadTurn := d/time.Duration(n) - refTurn
	t := turns{rt: newRuntimeHists()}
	for i := range n {
		takes, secs := ref.run(refTurn)
		t.refRates = append(t.refRates, float64(takes)/secs)
		e.collectorOn()
		inst.resume()
		time.Sleep(min(turnSettle, loadTurn/2))
		if record {
			e.block.Store(int32(i))
		}
		c0 := inst.counts()
		t.rt.begin()
		t0 := time.Now()
		time.Sleep(loadTurn - min(turnSettle, loadTurn/2))
		inst.pause()
		e.collectorOff()
		secs = time.Since(t0).Seconds()
		t.rt.end()
		c1 := inst.counts()
		e.block.Store(-1)
		t.loadSecs += secs
		t.ops += c1.ops - c0.ops
		t.issued += c1.issued - c0.issued
		t.rates = append(t.rates, float64(c1.ops-c0.ops)/secs)
	}
	return t
}

// childResult is what a child process reports for one run of one
// workload.
type childResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Samples   uint64             `json:"latency_samples"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runChild runs one workload in this process and prints its result as
// the last line of stdout.
func runChild(o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(1)
	w := lookupWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: a child runs exactly one workload, got %q\n", o.workload)
		return 2
	}
	res, err := measure(w, o.seed, time.Duration(o.seconds*float64(time.Second)), o.trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// measure builds the workload setupRounds times, runs the last copy for a
// warm-up and the measured window, checks it, and computes every metric.
// Every copy but the last is started, stopped, checked and torn down. The
// reference runs in turns with every set-up, the warm-up and the window.
func measure(w *workload, seed uint64, window time.Duration, traced bool) (*childResult, error) {
	e := newEnv(seed, traced)
	e.gcPercent = debug.SetGCPercent(-1)
	defer debug.SetGCPercent(e.gcPercent)
	ref := startReference()
	defer ref.stop()
	// live_heap_mb counts what the workload's state holds, not the
	// reference, the histogram and the span buffer allocated above.
	baseHeap := liveHeap()
	var c checker
	var setups, wallSetups []float64
	var inst instance
	var base int
	for i := range setupRounds {
		if i > 0 {
			inst.resume()
			inst.stop(&c)
			inst.close(&c)
			checkGoroutines(&c, base)
		}
		base = runtime.NumGoroutine()
		// Every copy is built on a collected heap, so none pays for
		// collecting the garbage of the copy before it.
		runtime.GC()
		takes, secs := ref.run(setupRefTurn)
		// A copy is set up once every goroutine of its load waits at the
		// gate, ready to run, and the collection the set-up started, if
		// any, has finished.
		e.collectorOn()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		inst.pause()
		e.collectorOff()
		d := time.Since(t0).Seconds()
		// The host's speed during the set-up is taken from reference turns
		// on both sides of it.
		takes2, secs2 := ref.run(setupRefTurn)
		speed := float64(takes+takes2) / (secs + secs2) / refNominal
		wallSetups = append(wallSetups, d)
		setups = append(setups, d*speed)
	}

	warm := min(maxWarmup, window)
	w0 := alternate(inst, ref, e, warm/2, false)
	// A collection halfway through the warm-up puts every window at the
	// same point of the GC cycle, so each run's window holds about the
	// same number of collections.
	runtime.GC()
	w1 := alternate(inst, ref, e, warm/2, false)
	if e.tr != nil {
		rate := float64(w0.issued+w1.issued) / (w0.loadSecs + w1.loadSecs)
		e.tr.plan(rate * window.Seconds() / 3 * w.spansPerIssue)
	}
	s0 := takeSnapshot(inst)
	win := alternate(inst, ref, e, window, true)
	s1 := takeSnapshot(inst)

	inst.stop(&c)
	fin := inst.counts()
	heap := liveHeap()
	heap -= min(baseHeap, heap)
	wtc := inst.wakeToClaim()
	inst.close(&c)
	checkGoroutines(&c, base)

	c.expect(win.ops > 0, "no op completed in the window")
	if w.autoSignal {
		c.expect(fin.core.Broadcasts == 0, "an AutoSynch monitor broadcast %d times", fin.core.Broadcasts)
	}
	res := &childResult{
		Workload:  w.name,
		Traced:    traced,
		Attempted: max(fin.issued, 1),
		Failed:    fin.failed + c.failed,
		Failures:  c.msgs,
		Samples:   e.lat.h.count(),
	}
	res.Metrics = computeMetrics(s0, s1, fin, win, &e.lat.h, wtc, heap, setups, wallSetups)
	res.Metrics["failed_ops_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	if e.tr != nil {
		var on, off []float64
		for i, r := range win.rates {
			if e.tracing(int32(i)) != nil {
				on = append(on, r)
			} else {
				off = append(off, r)
			}
		}
		res.Metrics["trace.overhead_ratio"] = ratio(median(off), median(on))
		e.tr.addMetrics(res.Metrics)
		path := filepath.Join(spanDir, "spans-"+w.name+".csv")
		if err := e.tr.dump(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: %s: wrote %d spans to %s\n", w.name, e.tr.len(), path)
	}
	return res, nil
}

// liveHeap returns the bytes of heap objects still reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 { return quantile(slices.Sorted(slices.Values(xs)), 0.5) }
