// Package obs is the monitor runtime's flight recorder and metrics
// surface: a low-overhead, always-compilable observability layer for the
// wake graph the runtime already knows — which exit relayed to which
// waiter, which claims went futile, which policy picked which candidate —
// but that a flat Stats counter struct can only summarize.
//
// The recorder is a set of per-monitor lock-free ring buffers of
// fixed-size binary events. Recording is armed process-wide with Start
// (one atomic pointer store); each monitor constructed while a recorder
// is active allocates its own ring with a single atomic load, and every
// event site afterwards is gated by a plain nil check of that ring field
// — monitors built with no recorder active carry a nil ring, so the
// disabled hot path pays one predictable branch and no atomics, staying
// within noise of the uninstrumented runtime (see the obs-disabled guard
// test at the repo root).
//
// Writers never block and never wait for readers: a slot claimed by a
// concurrent writer, or a reader racing a wrap, costs a dropped event
// counted in Drops — flight-recorder semantics, where the most recent
// window survives and loss is measured rather than prevented.
//
// The recorder is also the runtime's only timing instrument. A few kinds
// are spans: the event carries its start stamp in Arg, taken from the
// same clock as TS (Now), so TS − Arg is the span's length. The monitor
// takes a start stamp only while it records, so spans cost the disabled
// path nothing beyond its nil check. Analyze sums the spans into the
// paper's Table 1 phases: await (KClaim, KFutileWake), lock (KEnter),
// relay search (KRelay) and tag maintenance (KTag).
//
// Chains (chains.go) reconstructs signal→relay→claim causality from an
// event stream; WriteFile/ReadFile (file.go) persist the binary dump
// behind the CLIs' -trace flags; Registry (registry.go) is the
// expvar-compatible JSON metrics endpoint served by cmd/watchd.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the event types of the flight recorder. The zero Kind
// is reserved as "empty slot" so a torn or unwritten record can never
// masquerade as a real event.
type Kind uint8

// The recorded protocol events. Seq is the waiter's monitor-global
// arrival sequence where one is involved (0 otherwise); Arg is
// kind-specific and documented per constant.
const (
	// KEnter and KExit bracket one monitor occupancy. KEnter is a span:
	// Arg is the stamp taken before the monitor lock was requested, so
	// TS − Arg is the lock acquisition. KExit's Arg is unused.
	KEnter Kind = iota + 1
	KExit
	// KSignal is one relay (or explicit) signal: Seq is the signaled
	// waiter, Arg the seq of the waiter whose consumed notification this
	// relay continues (0 when the chain starts at a plain monitor exit).
	KSignal
	// KPolicyWake accompanies a KSignal whose target a wake policy chose:
	// Seq is the winning candidate, Arg its policy rank.
	KPolicyWake
	// KArm is a waiter registration (blocking wait or armed handle);
	// Arg is the registration-time policy rank.
	KArm
	// KClaim is a completed wait: a successful handle Claim or a blocking
	// wait whose predicate held on wake-up. For a blocking wait it is a
	// span: Arg is the stamp taken when its last park began, so TS − Arg
	// is the time it spent parked. A handle claim does not park; its Arg
	// is 0.
	KClaim
	// KFutileClaim is a Claim that found the predicate falsified; the
	// handle was re-armed. Arg unused.
	KFutileClaim
	// KFutileWake is a wake-up that found the predicate still false;
	// the waiter re-parked. A span like KClaim: Arg is the stamp taken
	// when the park it woke from began.
	KFutileWake
	// KCancel is an abandoned waiter: context cancellation, handle
	// Cancel, or the unwind of an expiry. Arg unused.
	KCancel
	// KExpire is a deadline that fired before the wait completed.
	// Arg unused.
	KExpire
	// KStarved is a completed wait that crossed the starvation
	// threshold; Arg is the observed wait in nanoseconds.
	KStarved
	// KBroadcast is a signalAll (Baseline exit, explicit Broadcast).
	// Arg unused.
	KBroadcast
	// KCounterPublish is one shard.Counter batch publication: Seq is the
	// publishing shard index, Arg the published delta.
	KCounterPublish
	// KRelay is one relay search that ran (no signal was pending). A
	// span: Arg is the stamp taken when the search began, so TS − Arg
	// covers the search and, when it found a waiter, the signal.
	KRelay
	// KTag is one tag-structure update: a predicate entry activated into,
	// or deactivated from, the predicate table and its tag structures. A
	// span: Arg is the stamp taken when the update began.
	KTag

	kindMax // sentinel: first invalid kind
)

// String names the kind for analysis tables.
func (k Kind) String() string {
	switch k {
	case KEnter:
		return "enter"
	case KExit:
		return "exit"
	case KSignal:
		return "signal"
	case KPolicyWake:
		return "policy-wake"
	case KArm:
		return "arm"
	case KClaim:
		return "claim"
	case KFutileClaim:
		return "futile-claim"
	case KFutileWake:
		return "futile-wake"
	case KCancel:
		return "cancel"
	case KExpire:
		return "expire"
	case KStarved:
		return "starved"
	case KBroadcast:
		return "broadcast"
	case KCounterPublish:
		return "counter-publish"
	case KRelay:
		return "relay"
	case KTag:
		return "tag"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined event kind.
func (k Kind) Valid() bool { return k >= KEnter && k < kindMax }

// Event is one fixed-size flight-recorder record. TS is monotonic
// nanoseconds since the recorder package initialized (comparable across
// rings of one process, meaningless across processes); Mon identifies the
// ring (monotonic per recorder) so merged streams stay attributable.
type Event struct {
	TS   int64  // monotonic nanos since process start
	Seq  uint64 // waiter arrival seq, or kind-specific id; 0 if none
	Arg  int64  // kind-specific argument; see the Kind constants
	Mon  uint32 // ring id within the recorder
	Kind Kind
	_    [3]byte
}

// epoch anchors the monotonic timestamps; time.Since reads the monotonic
// clock, so TS is immune to wall-clock jumps.
var epoch = time.Now()

// Now returns the recorder's clock: monotonic nanoseconds since the
// package initialized, the clock of Event.TS and of span start stamps.
// One monotonic clock read, no allocation.
func Now() int64 { return int64(time.Since(epoch)) }

// slot is one ring cell. stamp encodes the publication protocol:
//
//	0        — never written
//	2t+1     — a writer holding ticket t is mid-write (odd)
//	2t+2     — the event of ticket t is published (even, nonzero)
//
// A writer claims the slot by CASing the stamp from its current even
// value to its own odd writing stamp; a CAS loss or an odd stamp means a
// concurrent writer owns the slot (the ring lapped itself under burst),
// and the event is dropped rather than spun for. A reader snapshots the
// stamp, copies the event, and re-reads the stamp: any change in between
// means a torn copy, discarded. The payload is four atomic words (not a
// plain Event) so the copy racing a writer is merely stale, never a data
// race — the stamp re-check decides whether it is kept.
type slot struct {
	stamp atomic.Uint64
	ts    atomic.Uint64 // Event.TS
	seq   atomic.Uint64 // Event.Seq
	arg   atomic.Uint64 // Event.Arg
	mk    atomic.Uint64 // Event.Mon<<8 | Event.Kind
}

// Ring is a lock-free multi-writer flight-recorder ring: fixed capacity,
// newest events overwrite oldest, contended writes drop (counted) rather
// than block. One ring per monitor keeps hot-path writes uncontended in
// practice (monitor events are recorded under that monitor's lock); the
// multi-writer protocol is load-bearing for rings shared across locks,
// like a shard.Counter's publication ring.
type Ring struct {
	id    uint32
	label string
	mask  uint64
	head  atomic.Uint64 // next ticket; head - drops = published writes
	drops atomic.Uint64
	slots []slot
}

// ID returns the ring's id within its recorder (the Mon field of its
// events).
func (r *Ring) ID() uint32 { return r.id }

// Label returns the diagnostic label the ring was created with.
func (r *Ring) Label() string { return r.label }

// Cap returns the ring capacity in events.
func (r *Ring) Cap() int { return len(r.slots) }

// Drops returns how many events were discarded: slot contention between
// concurrent writers (never blocking is the contract).
func (r *Ring) Drops() uint64 { return r.drops.Load() }

// Writes returns how many events were successfully published (wrapped
// ones included — only the last Cap survive in the ring).
func (r *Ring) Writes() uint64 { return r.head.Load() - r.drops.Load() }

// Record appends one event. Never blocks: a slot owned by a concurrent
// writer drops the event and counts it. Safe for any number of
// concurrent writers. The timestamp is read before the slot is claimed,
// so a span ending at this event does not include the ring write.
func (r *Ring) Record(kind Kind, seq uint64, arg int64) {
	ts := Now()
	t := r.head.Add(1) - 1
	s := &r.slots[t&r.mask]
	old := s.stamp.Load()
	if old&1 == 1 || !s.stamp.CompareAndSwap(old, 2*t+1) {
		r.drops.Add(1)
		return
	}
	s.ts.Store(uint64(ts))
	s.seq.Store(seq)
	s.arg.Store(uint64(arg))
	s.mk.Store(uint64(r.id)<<8 | uint64(kind))
	s.stamp.Store(2*t + 2)
}

// Snapshot returns the ring's published events, oldest first. Safe to
// call while writers run: a slot mid-write or overwritten during the copy
// is skipped (it will appear complete in a later snapshot or has been
// superseded), so every returned event is internally consistent.
func (r *Ring) Snapshot() []Event {
	evs := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		st := s.stamp.Load()
		if st == 0 || st&1 == 1 {
			continue
		}
		ts, seq, arg, mk := s.ts.Load(), s.seq.Load(), s.arg.Load(), s.mk.Load()
		if s.stamp.Load() != st {
			continue // torn: a writer replaced the slot mid-copy
		}
		evs = append(evs, Event{
			TS: int64(ts), Seq: seq, Arg: int64(arg),
			Mon: uint32(mk >> 8), Kind: Kind(mk),
		})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs
}

// DefaultRingSize is the per-ring capacity Start allocates when given a
// non-positive size: 64Ki events (2 MiB per monitor) holds the full event
// stream of a -quick experiment and a multi-second window of a saturated
// monitor.
const DefaultRingSize = 1 << 16

// Recorder owns the rings of one recording session. Monitors constructed
// while a recorder is globally active (Start) call NewRing once and keep
// the ring for life; the recorder aggregates across rings for analysis
// and export.
type Recorder struct {
	size int

	mu    sync.Mutex
	rings []*Ring
}

// NewRecorder builds a recorder whose rings hold perRing events each
// (rounded up to a power of two; non-positive means DefaultRingSize).
// The recorder is inert until monitors are pointed at it — either
// explicitly via NewRing or process-wide via Start.
func NewRecorder(perRing int) *Recorder {
	size := 1
	if perRing <= 0 {
		perRing = DefaultRingSize
	}
	for size < perRing {
		size <<= 1
	}
	return &Recorder{size: size}
}

// NewRing allocates a labeled ring. Called once per monitor at
// construction; the returned ring is the monitor's to write for life,
// even after the recorder is detached with Stop (the events simply stop
// being collected by anyone).
func (rec *Recorder) NewRing(label string) *Ring {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	r := &Ring{
		id:    uint32(len(rec.rings)),
		label: label,
		mask:  uint64(rec.size - 1),
		slots: make([]slot, rec.size),
	}
	rec.rings = append(rec.rings, r)
	return r
}

// Rings returns the recorder's rings in creation order.
func (rec *Recorder) Rings() []*Ring {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]*Ring(nil), rec.rings...)
}

// Events merges every ring's snapshot into one stream ordered by
// timestamp.
func (rec *Recorder) Events() []Event {
	var evs []Event
	for _, r := range rec.Rings() {
		evs = append(evs, r.Snapshot()...)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs
}

// Drops sums the drop counters across rings.
func (rec *Recorder) Drops() uint64 {
	var d uint64
	for _, r := range rec.Rings() {
		d += r.Drops()
	}
	return d
}

// Writes sums the published-event counters across rings.
func (rec *Recorder) Writes() uint64 {
	var w uint64
	for _, r := range rec.Rings() {
		w += r.Writes()
	}
	return w
}

// active is the process-wide recorder consulted (one atomic load) by
// every monitor constructor.
var active atomic.Pointer[Recorder]

// Start arms process-wide recording: monitors constructed from now on
// allocate a ring on the returned recorder. Size is the per-ring capacity
// (non-positive: DefaultRingSize). Monitors that already exist keep
// recording to whatever ring (possibly none) they were built with —
// rings are bound at construction so the per-event guard stays a plain
// nil check.
func Start(perRing int) *Recorder {
	rec := NewRecorder(perRing)
	active.Store(rec)
	return rec
}

// Stop detaches the process-wide recorder and returns it for analysis;
// nil if none was active. Monitors built during the session keep their
// rings (writes continue harmlessly into the detached recorder) but new
// monitors record nothing.
func Stop() *Recorder {
	return active.Swap(nil)
}

// Active returns the process-wide recorder, or nil. Monitor constructors
// call this once; event sites never do.
func Active() *Recorder {
	return active.Load()
}
