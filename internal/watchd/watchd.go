// Package watchd is a long-running keyed watch-service daemon built on
// the sharded automatic-signal monitor: clients register standing watch
// sessions on keys, publishers bump per-key versions, and the daemon
// delivers "key k reached version v" events with wake-to-claim latency
// measured per delivery. It is the production-shaped proof behind the
// library: 10⁵–10⁶ concurrent sessions under client churn, judged by the
// numbers real services are judged by — p50/p99/p999 latency, graceful
// load shedding, and leak-free drain.
//
// # Architecture
//
// Every session is one armed *core.Wait handle on a compiled per-key
// threshold predicate ("v<k> >= want") living on the key's owner shard —
// no goroutine is parked per session. The session keeps that one handle
// for its whole life: each Renew re-arms the handle its last delivery
// claimed in place (core.RearmClaimed), with its subscription, so a
// renewal allocates no handle. Handles are multiplexed onto a small set
// of dispatcher goroutines with Wait.Subscribe: each dispatcher owns one
// buffered delivery channel, receives the session ids of fired handles,
// looks the session up in its slot table (a slice indexed by id), claims
// Mesa-style (re-validating under the shard lock), reads the key's
// version, and hands the event to the client (callback or per-session
// channel). The wake-to-claim interval — notification received to claim
// completed — is recorded into a per-dispatcher histogram and merged on
// Stats.
//
// The shard monitors park no predicate entries (core.WithInactiveLimit(0),
// which Config.MonitorOptions can override). A key's versions only grow
// and a session re-arms only for a version after the one it saw, so an
// entry whose last waiter has gone is never asked for again: parking it
// would only delay its eviction. Each discarded entry's storage builds the
// next fresh one instead.
//
// # Admission control and eviction
//
// Register sheds load gracefully rather than collapsing: a MaxSessions
// gate (plus a per-dispatcher capacity gate that also backs the delivery
// channel's no-drop guarantee) rejects registrations with
// ErrSessionLimit, and when the armed-waiter population exceeds MaxIdle,
// the least-recently-active idle sessions are evicted — their handles
// cancelled with the mechanism's usual relay repair — so waiter memory
// stays bounded under churn. An optional IdleExpiry deadline bounds
// waiter lifetime by time the same way: a janitor expires armed sessions
// (ErrExpired, distinct from ErrEvicted) that go a full deadline without
// a delivery, Renew, or futile wake. All three are surfaced in Stats.
// The activity order both read, an idle LRU of armed sessions, is kept
// only when MaxIdle or IdleExpiry is set; otherwise nothing reads it, and
// no session is listed.
//
// # Delivery-channel accounting
//
// The dispatcher channel must never drop a live session's notification
// (a drop is a lost wake-up). A handle sends at most once per arm cycle,
// so queued entries are bounded by live armed sessions plus "zombies":
// cancelled sessions whose final notification (real or Cancel's
// courtesy) is still queued. The daemon counts zombies exactly —
// incremented when an armed session is cancelled, decremented when its
// stale id is dequeued — and admission keeps live+zombies within the
// channel capacity, making the no-drop bound an invariant rather than a
// hope. A zombie's id is reused only once its notification has drained,
// so a queued id always names the session it was sent for. Close drains
// every dispatcher and verifies zero live sessions, zero zombies, and
// zero registered waiters.
package watchd

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/stats"
)

// Session lifecycle errors.
var (
	// ErrClosed is returned by Register after Close, and reported by
	// sessions cancelled by the daemon shutting down.
	ErrClosed = errors.New("watchd: daemon closed")

	// ErrSessionLimit is the admission-control rejection: the daemon is at
	// MaxSessions (or a dispatcher is at capacity) and the client should
	// back off and retry.
	ErrSessionLimit = errors.New("watchd: session limit reached")

	// ErrEvicted reports a session cancelled by memory-pressure eviction:
	// it sat idle while the armed-waiter population exceeded MaxIdle.
	ErrEvicted = errors.New("watchd: session evicted under memory pressure")

	// ErrExpired reports a session cancelled by the idle deadline: it went
	// IdleExpiry without a delivery, Renew, or futile wake. Distinct from
	// ErrEvicted — expiry is a per-session time contract, eviction is
	// population-wide memory pressure — so clients can tell "come back
	// later" from "you went away".
	ErrExpired = errors.New("watchd: session expired after idle deadline")

	// ErrCancelled reports a session cancelled by its client.
	ErrCancelled = errors.New("watchd: session cancelled")

	// ErrBadKey reports a watch or publish on a key outside [0, Keys).
	ErrBadKey = errors.New("watchd: key out of range")
)

// Config sizes a Daemon. The zero value of every field selects a
// reasonable default (see New).
type Config struct {
	Keys        int // watchable key space [0, Keys); default 4096
	Shards      int // partitions of the key space; default 8
	Dispatchers int // delivery goroutines; default min(GOMAXPROCS, 8)

	MaxSessions int // admission gate; default 1<<17
	MaxIdle     int // armed-waiter watermark for LRU eviction; 0 disables

	// IdleExpiry, when positive, expires armed sessions that see no
	// activity (delivery, Renew keep-alive, or futile wake) for this long:
	// a janitor cancels them with ErrExpired. It bounds waiter lifetime by
	// time the way MaxIdle bounds it by count.
	IdleExpiry time.Duration

	// OnEvent, when set, is called by the delivering dispatcher (outside
	// all daemon locks) instead of sending on the session's Events
	// channel. A daemon serving many thousands of sessions should use the
	// callback: it needs no per-session consumer goroutine.
	OnEvent func(Event)

	// EventBuffer is the per-session Events channel capacity when OnEvent
	// is nil; default 1. Deliveries that find the buffer full are
	// coalesced (the session still tracks the latest version).
	EventBuffer int

	// MonitorOptions configure every inner monitor (e.g.
	// core.WithoutTagging for the AutoSynch-T variant). They apply after
	// the daemon's own core.WithInactiveLimit(0), which they may override.
	MonitorOptions []core.Option
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Keys <= 0 {
		c.Keys = 4096
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = runtime.GOMAXPROCS(0)
		if c.Dispatchers > 8 {
			c.Dispatchers = 8
		}
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1 << 17
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 1
	}
	return c
}

// Event is one watch delivery: key reached version, observed with the
// given wake-to-claim latency.
type Event struct {
	Session *Session
	Key     uint64
	Version int64
	Wake    time.Duration
}

// sessionState is the lifecycle of a session.
type sessionState uint8

const (
	sessionArmed     sessionState = iota // handle armed, waiting for its version
	sessionDelivered                     // event delivered; waiting for Renew
	sessionDead                          // cancelled, evicted, or closed; see err
)

// Session is one standing keyed watch: an armed wait handle owned by the
// daemon, renewed by the client after each delivery. All methods are safe
// for concurrent use.
type Session struct {
	d  *Daemon
	dp *dispatcher
	id int // slot in dp.sessions and the handle's delivery index

	key uint64

	// Guarded by dp.mu.
	state         sessionState
	err           error // terminal cause when dead
	w             *core.Wait
	seen          int64 // latest delivered (or registration-time) version
	want          int64 // version the armed predicate fires at
	claiming      bool  // a dispatcher is mid-claim on w
	pendingCancel bool  // cancel requested while claiming; finalize completes it
	cancelCause   error
	events        chan Event

	// Guarded by d.lruMu. lruEl points at lru while the session is listed
	// and is nil otherwise; lastTouch is stamped on every touch when an
	// IdleExpiry janitor reads it.
	lru       lruElem
	lruEl     *lruElem
	lruEpoch  uint64
	lastTouch time.Time
}

// Key returns the watched key.
func (s *Session) Key() uint64 { return s.key }

// Seen returns the latest version observed by the session (the version at
// registration until the first delivery).
func (s *Session) Seen() int64 {
	s.dp.mu.Lock()
	defer s.dp.mu.Unlock()
	return s.seen
}

// Events returns the delivery channel (nil when the daemon uses the
// OnEvent callback). The channel is closed when the session ends; check
// Err for the cause.
func (s *Session) Events() <-chan Event { return s.events }

// Err reports why the session ended: nil while live, ErrCancelled,
// ErrEvicted, ErrExpired, or ErrClosed afterwards.
func (s *Session) Err() error {
	s.dp.mu.Lock()
	defer s.dp.mu.Unlock()
	if s.state == sessionDead {
		return s.err
	}
	return nil
}

// Renew re-arms a delivered session for the version after the one it saw,
// and refreshes the session's idle-LRU position. Renewing a still-armed
// session is a keep-alive touch. Returns the terminal error of a dead
// session.
func (s *Session) Renew() error {
	dp, d := s.dp, s.d
	dp.mu.Lock()
	switch s.state {
	case sessionDead:
		err := s.err
		dp.mu.Unlock()
		return err
	case sessionArmed:
		d.lruTouch(s)
		dp.mu.Unlock()
		return nil
	}
	s.want = s.seen + 1
	s.state = sessionArmed
	dp.arm(s)
	d.armed.Add(1)
	d.lruTouch(s)
	dp.mu.Unlock()
	d.renewed.Add(1)
	d.maybeEvict()
	return nil
}

// Cancel ends the session: the armed handle (if any) is cancelled with
// relay repair, the session is removed, and Err reports ErrCancelled.
// Cancelling a dead session is a no-op.
func (s *Session) Cancel() {
	s.dp.mu.Lock()
	s.dp.cancelLocked(s, ErrCancelled)
	s.dp.mu.Unlock()
}

// dispatcher multiplexes the armed handles of its sessions over one
// buffered delivery channel.
type dispatcher struct {
	d  *Daemon
	ch chan int

	mu       sync.Mutex
	sessions []*Session // live sessions by id; nil for a free or zombie id
	free     []int      // ids with no session and nothing queued, for reuse
	live     int        // live sessions
	zombies  int        // cancelled sessions with a possibly-queued notification
	quota    int        // live+zombies bound; equals cap(ch)
	hist     stats.Histogram
}

// add gives a new session an id, reusing a free one, and a slot. Caller
// holds dp.mu.
func (dp *dispatcher) add(s *Session) {
	if last := len(dp.free) - 1; last >= 0 {
		s.id = dp.free[last]
		dp.free = dp.free[:last]
		dp.sessions[s.id] = s
	} else {
		s.id = len(dp.sessions)
		dp.sessions = append(dp.sessions, s)
	}
	dp.live++
}

// arm arms the session's handle for s.want, subscribed to the dispatcher
// channel. A renewal re-arms the handle its delivery claimed in place,
// which keeps the subscription and takes the shard lock once; a
// registration, or a handle the monitor refuses to re-arm, gets a fresh
// handle. Caller holds dp.mu.
func (dp *dispatcher) arm(s *Session) {
	p, want := dp.d.preds[s.key], core.BindInt("want", s.want)
	if s.w != nil && core.RearmClaimed(p, s.w, want) {
		return
	}
	s.w = p.Arm(want)
	if err := s.w.Err(); err != nil {
		// The per-key predicates are statically well-formed; an arming
		// error is a programming bug, not an input condition.
		panic(fmt.Sprintf("watchd: arm session on key %d: %v", s.key, err))
	}
	s.w.Subscribe(dp.ch, s.id)
}

// cancelLocked ends a session with the given cause. Caller holds dp.mu.
// A session mid-claim is flagged for the dispatcher's finalize step,
// which completes the bookkeeping; otherwise the session is removed here.
func (dp *dispatcher) cancelLocked(s *Session, cause error) {
	if s.state == sessionDead {
		return
	}
	if s.claiming {
		if !s.pendingCancel {
			s.pendingCancel = true
			s.cancelCause = cause
			s.w.Cancel()
		}
		return
	}
	queued := s.state == sessionArmed
	if queued {
		s.w.Cancel() // the cycle's notification (real or courtesy) is queued
		dp.d.armed.Add(-1)
		dp.d.lruRemove(s)
	}
	dp.removeLocked(s, cause, queued)
}

// removeLocked finishes taking a session out of the daemon. Caller holds
// dp.mu; the session must not be armed or claiming anymore. queued says
// whether a notification for its id may still be queued: the id is then
// a zombie until process drains it, and free at once otherwise.
func (dp *dispatcher) removeLocked(s *Session, cause error, queued bool) {
	s.state = sessionDead
	s.err = cause
	dp.sessions[s.id] = nil
	if queued {
		dp.zombies++
	} else {
		dp.free = append(dp.free, s.id)
	}
	dp.live--
	dp.d.active.Add(-1)
	if s.events != nil {
		close(s.events)
	}
	switch cause {
	case ErrEvicted:
		dp.d.evicted.Add(1)
	case ErrExpired:
		dp.d.expired.Add(1)
	case ErrCancelled:
		dp.d.cancelled.Add(1)
	default:
		dp.d.closedOut.Add(1)
	}
}

// run is the dispatcher goroutine: receive fired session ids, claim,
// deliver. After quit closes it drains the channel — every send happens
// before the corresponding Cancel or Close returns, so a drained channel
// means no entry is outstanding — and exits.
func (dp *dispatcher) run() {
	defer dp.d.wg.Done()
	for {
		select {
		case id := <-dp.ch:
			dp.process(id, time.Now())
		case <-dp.d.quit:
			for {
				select {
				case id := <-dp.ch:
					dp.process(id, time.Now())
				default:
					return
				}
			}
		}
	}
}

// process handles one delivery-channel entry. t0 — the receive time — is
// the wake timestamp of the wake-to-claim measurement.
func (dp *dispatcher) process(id int, t0 time.Time) {
	dp.mu.Lock()
	s := dp.sessions[id]
	if s == nil {
		// A zombie's final notification: the session was cancelled with
		// this entry queued (or mid-receive); account the drained slot,
		// whose id nothing can name any more.
		dp.zombies--
		dp.free = append(dp.free, id)
		dp.mu.Unlock()
		return
	}
	if s.state != sessionArmed || s.claiming {
		// Defensive: a delivered session has consumed its cycle's entry,
		// so nothing should route here; ignore rather than double-claim.
		dp.mu.Unlock()
		return
	}
	s.claiming = true
	w := s.w
	dp.mu.Unlock()

	err := w.Claim()
	var ver int64
	if err == nil {
		// Claim succeeded: the shard monitor is held with the predicate
		// true; read the version and leave before any daemon locks.
		ver = dp.d.vers[s.key].Get()
		dp.d.sm.Of(s.key).Exit()
	}
	wake := time.Since(t0)

	ev, deliver := dp.finalize(s, err, ver, wake)
	if deliver && dp.d.cfg.OnEvent != nil {
		dp.d.cfg.OnEvent(ev)
	}
}

// finalize settles a claim outcome under dp.mu and returns the event to
// deliver via the OnEvent callback (channel-mode delivery happens inside,
// under the lock, so it cannot race the channel close in removeLocked).
func (dp *dispatcher) finalize(s *Session, err error, ver int64, wake time.Duration) (Event, bool) {
	d := dp.d
	dp.mu.Lock()
	defer dp.mu.Unlock()
	s.claiming = false
	if s.pendingCancel {
		// A cancel or eviction raced the claim; it deferred to us. The
		// cancel's courtesy notification is queued only when a futile
		// claim re-armed the handle before the cancel landed.
		d.armed.Add(-1)
		d.lruRemove(s)
		dp.removeLocked(s, s.cancelCause, errors.Is(err, core.ErrNotReady))
		return Event{}, false
	}
	switch {
	case err == nil:
		s.state = sessionDelivered
		s.seen = ver
		d.armed.Add(-1)
		d.lruRemove(s)
		dp.hist.Observe(wake)
		d.delivered.Add(1)
		ev := Event{Session: s, Key: s.key, Version: ver, Wake: wake}
		if s.events != nil {
			select {
			case s.events <- ev:
			default:
				d.coalesced.Add(1)
			}
			return Event{}, false
		}
		return ev, true
	case errors.Is(err, core.ErrNotReady):
		// Falsified between notification and claim; the handle re-armed
		// transparently and stays subscribed. Count the futile wake as
		// activity so the session is not immediately eviction fodder.
		d.futile.Add(1)
		d.lruTouch(s)
	}
	return Event{}, false
}

// Daemon is the watch service. Construct with New, drive with Register/
// Publish, and shut down with Close, which verifies leak-free drain.
type Daemon struct {
	cfg   Config
	sm    *shard.Monitor
	vers  []*core.IntCell   // per-key version cells, on their owner shards
	preds []*core.Predicate // per-key "v<k> >= want" on the owner shard

	disp []*dispatcher
	rr   atomic.Uint64 // round-robin dispatcher assignment

	closed atomic.Bool
	quit   chan struct{}
	wg     sync.WaitGroup

	lruMu sync.Mutex
	lru   lruList

	active atomic.Int64 // live sessions (armed + delivered)
	armed  atomic.Int64 // armed sessions (the waiter population)

	registered atomic.Uint64
	renewed    atomic.Uint64
	cancelled  atomic.Uint64
	evicted    atomic.Uint64
	expired    atomic.Uint64
	rejected   atomic.Uint64
	closedOut  atomic.Uint64 // sessions cancelled by Close
	delivered  atomic.Uint64
	coalesced  atomic.Uint64
	futile     atomic.Uint64
}

// New constructs and starts a daemon: Shards inner monitors with one
// version cell and one compiled threshold predicate per key on its owner
// shard, and Dispatchers delivery goroutines.
func New(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{cfg: cfg, quit: make(chan struct{})}
	d.vers = make([]*core.IntCell, cfg.Keys)
	d.preds = make([]*core.Predicate, cfg.Keys)
	// No session re-arms a version its key has passed, so the monitors
	// park no entries.
	opts := append([]core.Option{core.WithInactiveLimit(0)}, cfg.MonitorOptions...)
	d.sm = shard.New(cfg.Shards,
		shard.WithMonitorOptions(opts...),
		shard.WithSetup(func(si int, m *core.Monitor) {
			for k := 0; k < cfg.Keys; k++ {
				if shard.IndexFor(uint64(k), cfg.Shards) == si {
					d.vers[k] = m.NewInt(fmt.Sprintf("v%d", k), 0)
				}
			}
		}))
	for k := 0; k < cfg.Keys; k++ {
		d.preds[k] = d.sm.MustCompileAt(uint64(k), fmt.Sprintf("v%d >= want", k))
	}
	// Per-dispatcher capacity: the delivery channel must hold one entry
	// per live armed session plus one per zombie, so quota == cap(ch) and
	// admission enforces live+zombies < quota. Doubling the fair share
	// keeps round-robin imbalance and zombie transients from rejecting
	// below MaxSessions in practice.
	quota := 2*((cfg.MaxSessions+cfg.Dispatchers-1)/cfg.Dispatchers) + 64
	d.disp = make([]*dispatcher, cfg.Dispatchers)
	for i := range d.disp {
		d.disp[i] = &dispatcher{d: d, ch: make(chan int, quota), quota: quota}
		d.wg.Add(1)
		go d.disp[i].run()
	}
	if cfg.IdleExpiry > 0 {
		d.wg.Add(1)
		go d.janitor()
	}
	return d
}

// janitor is the idle-expiry sweeper: at a fraction of IdleExpiry it
// expires every armed session whose last activity is older than the
// deadline. Scanning from the LRU tail terminates at the first
// fresh-enough session, so a sweep costs O(expired), not O(armed).
func (d *Daemon) janitor() {
	defer d.wg.Done()
	tick := d.cfg.IdleExpiry / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-d.quit:
			return
		case now := <-t.C:
			d.expireIdle(now)
		}
	}
}

// expireIdle cancels (with ErrExpired) armed sessions untouched since
// before now − IdleExpiry. The same pop-and-recheck discipline as
// maybeEvict: the LRU pop is provisional, and only a session still armed,
// not mid-claim, and untouched since the pop (epoch match) is expired —
// anything else self-heals its LRU position on its next activity.
func (d *Daemon) expireIdle(now time.Time) {
	cutoff := now.Add(-d.cfg.IdleExpiry)
	for {
		d.lruMu.Lock()
		if e := d.lru.tail; e == nil || e.s.lastTouch.After(cutoff) {
			d.lruMu.Unlock()
			return
		}
		s, epoch := d.lru.popOldest()
		d.lruMu.Unlock()
		s.dp.mu.Lock()
		if s.state == sessionArmed && !s.claiming && s.lruEpoch == epoch {
			s.dp.cancelLocked(s, ErrExpired)
		}
		s.dp.mu.Unlock()
	}
}

// NumKeys returns the size of the watchable key space.
func (d *Daemon) NumKeys() int { return d.cfg.Keys }

// ActiveSessions returns the current live session count.
func (d *Daemon) ActiveSessions() int64 { return d.active.Load() }

// ArmedSessions returns the current armed-waiter count (the population
// MaxIdle bounds).
func (d *Daemon) ArmedSessions() int64 { return d.armed.Load() }

// Waiting returns the registered-waiter count across all shards.
func (d *Daemon) Waiting() int { return d.sm.Waiting() }

// Version returns key's current version.
func (d *Daemon) Version(key uint64) (int64, error) {
	if key >= uint64(d.cfg.Keys) {
		return 0, ErrBadKey
	}
	var v int64
	d.sm.Do(key, func(*core.Monitor) { v = d.vers[key].Get() })
	return v, nil
}

// Publish bumps key's version inside its owner shard — the exit's relay
// search wakes eligible watchers — and returns the new version.
func (d *Daemon) Publish(key uint64) (int64, error) {
	if key >= uint64(d.cfg.Keys) {
		return 0, ErrBadKey
	}
	var v int64
	d.sm.Do(key, func(*core.Monitor) { v = d.vers[key].Add(1) })
	return v, nil
}

// Register opens a standing watch on key for versions after the current
// one. It fails with ErrSessionLimit when the daemon is at MaxSessions or
// the assigned dispatcher is at capacity (load shedding: back off and
// retry), and with ErrClosed after Close.
func (d *Daemon) Register(key uint64) (*Session, error) {
	if key >= uint64(d.cfg.Keys) {
		return nil, ErrBadKey
	}
	if d.closed.Load() {
		return nil, ErrClosed
	}
	if n := d.active.Add(1); n > int64(d.cfg.MaxSessions) {
		d.active.Add(-1)
		d.rejected.Add(1)
		return nil, ErrSessionLimit
	}
	dp := d.disp[d.rr.Add(1)%uint64(len(d.disp))]
	var cur int64
	d.sm.Do(key, func(*core.Monitor) { cur = d.vers[key].Get() })

	dp.mu.Lock()
	if d.closed.Load() {
		// Close cancels every session under each dispatcher's lock after
		// setting closed; re-checking under the lock means no session can
		// slip in behind that sweep.
		dp.mu.Unlock()
		d.active.Add(-1)
		return nil, ErrClosed
	}
	if dp.live+dp.zombies >= dp.quota {
		dp.mu.Unlock()
		d.active.Add(-1)
		d.rejected.Add(1)
		return nil, ErrSessionLimit
	}
	s := &Session{
		d: d, dp: dp, key: key,
		state: sessionArmed, seen: cur, want: cur + 1,
	}
	if d.cfg.OnEvent == nil {
		s.events = make(chan Event, d.cfg.EventBuffer)
	}
	dp.add(s)
	dp.arm(s)
	d.armed.Add(1)
	d.lruTouch(s)
	dp.mu.Unlock()

	d.registered.Add(1)
	d.maybeEvict()
	return s, nil
}

// maybeEvict enforces the MaxIdle watermark: while the armed-waiter
// population exceeds it, the least-recently-active armed session is
// cancelled with ErrEvicted. Sessions that turn out to be mid-delivery or
// freshly renewed are skipped (their LRU position self-heals on the next
// activity).
func (d *Daemon) maybeEvict() {
	if d.cfg.MaxIdle <= 0 {
		return
	}
	// The attempt bound keeps a burst of skips (sessions racing into
	// delivery) from spinning; pressure that remains is relieved by the
	// next Register or Renew.
	attempts := 2*int(d.armed.Load()-int64(d.cfg.MaxIdle)) + 8
	for i := 0; i < attempts && d.armed.Load() > int64(d.cfg.MaxIdle); i++ {
		d.lruMu.Lock()
		s, epoch := d.lru.popOldest()
		d.lruMu.Unlock()
		if s == nil {
			return
		}
		s.dp.mu.Lock()
		if s.state == sessionArmed && !s.claiming && s.lruEpoch == epoch {
			s.dp.cancelLocked(s, ErrEvicted)
		}
		s.dp.mu.Unlock()
	}
}

// Stats is a point-in-time snapshot of the daemon's counters, the merged
// wake-to-claim histogram, and the underlying monitor statistics.
type Stats struct {
	Active int64 `json:"active"` // live sessions
	Armed  int64 `json:"armed"`  // armed waiters (bounded by MaxIdle)

	Registered uint64 `json:"registered"`
	Renewed    uint64 `json:"renewed"`
	Cancelled  uint64 `json:"cancelled"` // client cancels
	Evicted    uint64 `json:"evicted"`   // memory-pressure evictions
	Expired    uint64 `json:"expired"`   // idle-deadline expiries
	Rejected   uint64 `json:"rejected"`  // admission-control rejections
	ClosedOut  uint64 `json:"closed_out"`
	Delivered  uint64 `json:"delivered"`
	Coalesced  uint64 `json:"coalesced"`
	Futile     uint64 `json:"futile"` // claims that found the predicate falsified

	Zombies int64 `json:"zombies"` // queued final notifications (0 after drain)
	Waiting int   `json:"waiting"` // registered waiters across shards

	WakeToClaim stats.Histogram `json:"wake_to_claim"`
	Monitor     core.Stats      `json:"monitor"`
}

// String renders the one-line summary soak reports print.
func (s Stats) String() string {
	return fmt.Sprintf(
		"active=%d armed=%d registered=%d renewed=%d delivered=%d cancelled=%d evicted=%d expired=%d rejected=%d coalesced=%d futile=%d wake[%s]",
		s.Active, s.Armed, s.Registered, s.Renewed, s.Delivered,
		s.Cancelled, s.Evicted, s.Expired, s.Rejected, s.Coalesced, s.Futile, s.WakeToClaim.String())
}

// Stats snapshots the daemon.
func (d *Daemon) Stats() Stats {
	st := Stats{
		Active:     d.active.Load(),
		Armed:      d.armed.Load(),
		Registered: d.registered.Load(),
		Renewed:    d.renewed.Load(),
		Cancelled:  d.cancelled.Load(),
		Evicted:    d.evicted.Load(),
		Expired:    d.expired.Load(),
		Rejected:   d.rejected.Load(),
		ClosedOut:  d.closedOut.Load(),
		Delivered:  d.delivered.Load(),
		Coalesced:  d.coalesced.Load(),
		Futile:     d.futile.Load(),
		Waiting:    d.sm.Waiting(),
		Monitor:    d.sm.Stats(),
	}
	for _, dp := range d.disp {
		dp.mu.Lock()
		st.Zombies += int64(dp.zombies)
		h := dp.hist
		dp.mu.Unlock()
		st.WakeToClaim.Merge(&h)
	}
	return st
}

// Close shuts the daemon down: new registrations are refused, every
// session is cancelled (sessions see ErrClosed), dispatcher channels are
// drained, and the dispatcher goroutines exit. It returns an error if the
// drain leaks — a session, a zombie notification, or a registered waiter
// left behind. Closing twice returns ErrClosed.
func (d *Daemon) Close() error {
	if d.closed.Swap(true) {
		return ErrClosed
	}
	for _, dp := range d.disp {
		dp.mu.Lock()
		for _, s := range dp.sessions {
			if s != nil {
				dp.cancelLocked(s, ErrClosed)
			}
		}
		dp.mu.Unlock()
	}
	// Wait for in-flight claims to finalize and queued notifications to
	// drain; the dispatchers are still running and consume them.
	drained := func() bool {
		for _, dp := range d.disp {
			dp.mu.Lock()
			ok := dp.live == 0 && dp.zombies == 0
			dp.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for !drained() {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(d.quit)
	d.wg.Wait()
	var live, zombies int
	for _, dp := range d.disp {
		live += dp.live
		zombies += dp.zombies
	}
	if live != 0 || zombies != 0 {
		return fmt.Errorf("watchd: drain leaked %d sessions and %d queued notifications", live, zombies)
	}
	if w := d.sm.Waiting(); w != 0 {
		return fmt.Errorf("watchd: drain leaked %d registered waiters", w)
	}
	return nil
}

// lruElem / lruList is a tiny intrusive doubly-linked list ordering armed
// sessions by last activity (front = most recent). All operations run
// under the daemon's lruMu.
type lruElem struct {
	s          *Session
	prev, next *lruElem
}

type lruList struct {
	head, tail *lruElem // head = most recent
}

func (l *lruList) pushFront(e *lruElem) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lruList) remove(e *lruElem) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// popOldest removes and returns the least-recently-active session and its
// LRU epoch at pop time (nil when empty). The caller re-checks state and
// epoch under the session's dispatcher lock before acting.
func (l *lruList) popOldest() (*Session, uint64) {
	e := l.tail
	if e == nil {
		return nil, 0
	}
	l.remove(e)
	s := e.s
	s.lruEl = nil
	return s, s.lruEpoch
}

// keepsLRU reports whether anything reads the idle LRU: eviction past
// MaxIdle, or the IdleExpiry janitor. Without either it stays empty.
func (d *Daemon) keepsLRU() bool { return d.cfg.MaxIdle > 0 || d.cfg.IdleExpiry > 0 }

// lruTouch moves an armed session to the recent end, listing its own
// element if it is not listed: a new session, or one an evictor popped
// concurrently. Only an IdleExpiry janitor reads the touch time, so the
// clock is read only then. Caller holds the dispatcher lock.
func (d *Daemon) lruTouch(s *Session) {
	if !d.keepsLRU() {
		return
	}
	d.lruMu.Lock()
	if s.lruEl != nil {
		d.lru.remove(s.lruEl)
	} else {
		s.lru.s = s
		s.lruEl = &s.lru
	}
	s.lruEpoch++
	if d.cfg.IdleExpiry > 0 {
		s.lastTouch = time.Now()
	}
	d.lru.pushFront(s.lruEl)
	d.lruMu.Unlock()
}

// lruRemove drops a session from the LRU (no-op if already popped).
// Caller holds the dispatcher lock.
func (d *Daemon) lruRemove(s *Session) {
	if !d.keepsLRU() {
		return
	}
	d.lruMu.Lock()
	if s.lruEl != nil {
		d.lru.remove(s.lruEl)
		s.lruEl = nil
	}
	d.lruMu.Unlock()
}
