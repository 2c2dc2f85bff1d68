package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/watchd"
)

// watch runs watchd with standing sessions that renew on every delivery,
// driven by one publisher in a closed loop: five events in six publish a
// random key and wait until every session on it has been delivered to and
// renewed, the sixth cancels a random session and registers a new one.
// The daemon's speed sets the event rate (README.md says why the loop is
// not open).
const (
	watchKeys        = 4096
	watchShards      = 8
	watchDispatchers = 2
	watchSessions    = 20000
	watchChurnEvery  = 6
	watchRing        = 8 // versions of one key whose publish time is remembered
)

// Seeded input streams.
const (
	streamSessions = 1
	streamEvents   = 2
)

type watchLoad struct {
	e    *env
	d    *watchd.Daemon
	gate *gate // holds the generator
	gen  sync.WaitGroup

	// Generator-only state. The generator is the only publisher, so it
	// knows every key's next version before publishing it, and how many
	// live sessions each key has.
	rng    *rand.Rand
	vers   []int64
	live   []*watchd.Session
	perKey []int64
	expect int64 // renewals the generator has caused so far

	// Per (key, version % watchRing): when the publish was issued, and on
	// traced runs its op root and publish span indices (root<<32 | pub).
	sent  []atomic.Int64
	spans []atomic.Int64

	mu   sync.Mutex
	recs map[*watchd.Session]*sessionRec

	deliveries atomic.Int64
	renewed    atomic.Int64 // deliveries whose OnEvent has returned
	issued     atomic.Int64
	publishes  atomic.Int64
	failed     atomic.Int64
}

// sessionRec is the benchmark's view of one session: the version it last
// saw, so a delivery is timed from the publish of the version the session
// was armed for.
type sessionRec struct{ seen int64 }

func setupWatch(e *env) (instance, error) {
	w := &watchLoad{
		e:      e,
		gate:   newGate(1),
		rng:    e.rand(streamEvents),
		vers:   make([]int64, watchKeys),
		perKey: make([]int64, watchKeys),
		sent:   make([]atomic.Int64, watchKeys*watchRing),
		spans:  make([]atomic.Int64, watchKeys*watchRing),
		recs:   make(map[*watchd.Session]*sessionRec, watchSessions),
	}
	w.d = watchd.New(watchd.Config{
		Keys:        watchKeys,
		Shards:      watchShards,
		Dispatchers: watchDispatchers,
		OnEvent:     w.onEvent,
	})
	keys := e.rand(streamSessions)
	for range watchSessions {
		s, err := w.d.Register(uint64(keys.IntN(watchKeys)))
		if err != nil {
			w.d.Close()
			return nil, fmt.Errorf("register: %w", err)
		}
		w.recs[s] = &sessionRec{}
		w.live = append(w.live, s)
		w.perKey[s.Key()]++
	}
	w.gen.Add(1)
	go w.generate()
	return w, nil
}

func (w *watchLoad) resume() { w.gate.open() }

// pause holds the generator between two events, when every delivery it
// caused has been handled.
func (w *watchLoad) pause() { w.gate.hold() }

func (w *watchLoad) generate() {
	defer w.gen.Done()
	for i := int64(0); w.gate.pass(); i++ {
		// Publishes and churn pairs are sampled apart, each by its own
		// sequence number, so both appear in the trace.
		churn := i%watchChurnEvery == watchChurnEvery-1
		seq := i - i/watchChurnEvery
		if churn {
			seq = i / watchChurnEvery
		}
		root := int32(-1)
		if tr := w.e.tracing(w.e.block.Load()); tr != nil && tr.sampled(seq) {
			root = tr.alloc()
		}
		if churn {
			w.churn(root)
		} else {
			w.publish(root)
			w.awaitRenewals()
		}
	}
}

// awaitRenewals yields the processor to the dispatchers until every
// delivery the generator has caused has been handled. Deliveries missing
// after settleTimeout (lost wake-ups) count as failed.
func (w *watchLoad) awaitRenewals() {
	start := time.Now()
	for n := 1; w.renewed.Load() < w.expect; n++ {
		runtime.Gosched()
		if n%1024 == 0 && time.Since(start) > settleTimeout {
			w.failed.Add(w.expect - w.renewed.Load())
			w.expect = w.renewed.Load()
			return
		}
	}
}

func (w *watchLoad) publish(root int32) {
	k := w.rng.IntN(watchKeys)
	v := w.vers[k] + 1
	w.vers[k] = v
	pub := int32(-1)
	if root >= 0 {
		pub = w.e.tr.alloc()
	}
	slot := k*watchRing + int(v%watchRing)
	t1 := now()
	w.sent[slot].Store(t1)
	w.spans[slot].Store(int64(root)<<32 | int64(uint32(pub)))
	got, err := w.d.Publish(uint64(k))
	t2 := now()
	w.expect += w.perKey[k]
	w.issued.Add(1)
	w.publishes.Add(1)
	if err != nil || got != v {
		w.failed.Add(1)
	}
	if root >= 0 {
		w.e.tr.put(pub, span{start: t1, end: t2, parent: root, op: root, kind: kPublish})
		w.e.tr.put(root, span{start: t1, end: t2, parent: -1, op: root, kind: kOp})
	}
}

// churn cancels a random live session and registers a new one on a random
// key.
func (w *watchLoad) churn(root int32) {
	j := w.rng.IntN(len(w.live))
	k := w.rng.IntN(watchKeys)
	old := w.live[j]
	w.perKey[old.Key()]--
	t1 := now()
	old.Cancel()
	t2 := now()
	s, err := w.d.Register(uint64(k))
	t3 := now()
	w.issued.Add(2)
	w.mu.Lock()
	delete(w.recs, old)
	if err == nil {
		w.recs[s] = &sessionRec{seen: w.vers[k]}
	}
	w.mu.Unlock()
	if err != nil {
		w.failed.Add(1)
		w.live[j] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
	} else {
		w.live[j] = s
		w.perKey[k]++
	}
	if root >= 0 {
		tr := w.e.tr
		tr.add(span{start: t1, end: t2, parent: root, op: root, kind: kCancel})
		tr.add(span{start: t2, end: t3, parent: root, op: root, kind: kRegister})
		tr.put(root, span{start: t1, end: t3, parent: -1, op: root, kind: kOp})
	}
}

// onEvent runs on a dispatcher for every delivery: it times the delivery
// from the publish of the version the session was armed for, and renews
// the session.
func (w *watchLoad) onEvent(ev watchd.Event) {
	defer w.renewed.Add(1)
	t0 := now()
	w.deliveries.Add(1)
	w.mu.Lock()
	r := w.recs[ev.Session]
	slot := -1
	if r != nil {
		want := r.seen + 1
		r.seen = ev.Version
		slot = int(ev.Key)*watchRing + int(want%watchRing)
	}
	w.mu.Unlock()
	if w.e.block.Load() >= 0 && slot >= 0 {
		w.e.lat.observe(time.Duration(t0 - w.sent[slot].Load()))
	}
	t1 := now()
	err := ev.Session.Renew()
	t2 := now()
	if err != nil {
		w.failed.Add(1)
	}
	if slot < 0 {
		return
	}
	if packed := w.spans[slot].Load(); w.e.tr != nil && int32(packed) >= 0 {
		tr, root, pub := w.e.tr, int32(packed>>32), int32(packed)
		if d := tr.add(span{start: t0, end: t2, parent: pub, op: root, kind: kDeliver}); d >= 0 {
			tr.add(span{start: t1, end: t2, parent: d, op: root, kind: kRenew})
		}
	}
}

func (w *watchLoad) counts() counts {
	st := w.d.Stats()
	return counts{
		ops:       w.deliveries.Load(),
		issued:    w.issued.Load(),
		failed:    w.failed.Load(),
		publishes: w.publishes.Load(),
		rejected:  st.Rejected,
		coalesced: st.Coalesced,
		core:      st.Monitor,
	}
}

// stop ends the event stream and checks that no wake-up was lost: every
// live session must see its key's last version within settleTimeout. No
// version changes once the generator has stopped, so each key's version is
// read once rather than once per session.
func (w *watchLoad) stop(c *checker) {
	w.gate.stop()
	w.gen.Wait()
	final := make([]int64, watchKeys)
	for k := range final {
		v, err := w.d.Version(uint64(k))
		if err != nil {
			c.fail(1, "watch: version of key %d: %v", k, err)
		}
		final[k] = v
	}
	deadline := time.Now().Add(settleTimeout)
	var lost int64
	for _, s := range w.live {
		for {
			if s.Seen() >= final[s.Key()] {
				break
			}
			if time.Now().After(deadline) {
				lost++
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if lost > 0 {
		c.fail(lost, "watch: %d live sessions never saw their key's last version", lost)
	}
}

func (w *watchLoad) wakeToClaim() *stats.Histogram {
	h := w.d.Stats().WakeToClaim
	return &h
}

func (w *watchLoad) close(c *checker) {
	if err := w.d.Close(); err != nil {
		c.fail(1, "watch: close: %v", err)
	}
	c.expect(w.d.Waiting() == 0, "watch: %d waiters left after close", w.d.Waiting())
}
