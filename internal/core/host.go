package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stats"
)

// host is the monitor state and bookkeeping the three mechanisms share:
// Monitor embeds it directly, Baseline and Explicit through condHost. It
// owns the lock, the counters, the recorder ring, the fairness
// accounting, the await preamble and the give-up path of a parked wait.
// The mechanisms differ only in how a waiter is notified: Monitor relays
// a signal to one *Wait, Baseline broadcasts on every exit, and Explicit
// signals where the program says.
type host struct {
	mu      sync.Mutex
	in      bool // a thread is inside the monitor (diagnostics only)
	waiting int  // registered waiters: parked waits plus armed handles
	stats   Stats
	seq     uint64 // arrival counter stamped on waiters; policy sort key

	pol      policy.Policy // wake policy; nil keeps the mechanism's default pick
	starveNs int64         // starvation threshold; 0 disables Starved

	// Flight recorder ring, bound once at construction when an obs
	// recorder is active process-wide, nil otherwise. Every event site is
	// gated by a plain nil check of this field — the field is set before
	// the monitor is shared, so no atomics are needed and the disabled
	// path costs one predictable branch. The recorder is also the only
	// timing instrument: span events carry their start stamp in Arg (see
	// spanStart).
	rec *obs.Ring

	// Wake-to-claim latency, allocated lazily on the first completed
	// (non-fast-path) wait so monitors that never park stay alloc-free.
	lat *stats.Histogram
}

// setup copies the host's settings out of cfg and binds a recorder ring
// named after the mechanism when recording is active.
func (h *host) setup(cfg config, mechanism string) {
	h.pol, h.starveNs = cfg.policy, cfg.starveNs
	if rec := obs.Active(); rec != nil {
		h.rec = rec.NewRing(mechanism)
	}
}

// Enter acquires the monitor. Monitors are not reentrant. A recorded
// KEnter is the lock-acquisition span.
func (h *host) Enter() {
	if h.rec == nil {
		h.mu.Lock()
	} else {
		t0 := obs.Now()
		h.mu.Lock()
		h.rec.Record(obs.KEnter, 0, t0)
	}
	h.in = true
}

// spanStart returns the start stamp of a span event — KClaim or
// KFutileWake after a park, KRelay, KTag — or 0 when the monitor does
// not record, so the disabled path reads no clock.
func (h *host) spanStart() int64 {
	if h.rec == nil {
		return 0
	}
	return obs.Now()
}

// lockWait and unlockWait expose the monitor lock to the handle methods.
func (h *host) lockWait()   { h.mu.Lock() }
func (h *host) unlockWait() { h.mu.Unlock() }

// awaitStart is the preamble every blocking wait runs before it evaluates
// its predicate: it must hold the monitor (what names the call in the
// panic), it counts the await, and a context already done or a deadline
// already passed gives up at once — nothing was registered, so that
// counts no Abandon. Runs under the monitor lock.
func (h *host) awaitStart(ctx context.Context, deadline time.Time, what string) error {
	if !h.in {
		panic("autosynch: " + what + " outside the monitor; call Enter first")
	}
	h.stats.Awaits++
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		h.stats.Expired++
		return ErrDeadline
	}
	return nil
}

// givesUp reports whether a wait with this context and deadline can give
// up while parked, so its give-up triggers are worth arming.
func givesUp(ctx context.Context, deadline time.Time) bool {
	return ctx != nil && ctx.Done() != nil || !deadline.IsZero()
}

// giveUpOn arms the give-up triggers of the parked wait w as standard
// library callbacks: ctx through context.AfterFunc and the deadline
// through time.AfterFunc, a runtime timer that never fires early. No
// goroutine exists until a trigger fires. The first trigger to fire
// while w is still parked marks w with its error and calls wake — notify
// for a *Wait, Broadcast for a condition variable — and the waiter
// unwinds on wake-up, before its Mesa re-check (giveUp). A trigger that
// loses the race to the wait's completion finds w finished and does
// nothing. Runs under the monitor lock; the waiter disarms both triggers
// when it leaves.
func (h *host) giveUpOn(ctx context.Context, deadline time.Time, w *Wait, wake func()) {
	fire := func(err error) {
		h.mu.Lock()
		if w.state == waitArmed && w.err == nil {
			w.err = err
			wake()
		}
		h.mu.Unlock()
	}
	if ctx != nil && ctx.Done() != nil {
		w.stopCtx = context.AfterFunc(ctx, func() { fire(ctx.Err()) })
	}
	if !deadline.IsZero() {
		w.timer = time.AfterFunc(time.Until(deadline), func() { fire(ErrDeadline) })
	}
}

// giveUp accounts for a parked wait that woke marked by a give-up
// trigger and returns the mark: ctx.Err() or ErrDeadline. A give-up
// counts one Abandon, plus one Expired for a deadline, and never a
// Wakeup. Runs under the monitor lock.
func (h *host) giveUp(w *Wait) error {
	w.disarm()
	if w.err == ErrDeadline {
		h.statExpired(w)
	}
	h.statAbandon(w)
	return w.err
}

// statExpired counts a wait or handle that ended at its deadline. Runs
// under the monitor lock.
func (h *host) statExpired(w *Wait) {
	h.stats.Expired++
	if h.rec != nil {
		h.rec.Record(obs.KExpire, w.seq, 0)
	}
}

// statAbandon counts a wait or handle that left before completing. Runs
// under the monitor lock.
func (h *host) statAbandon(w *Wait) {
	h.stats.Abandons++
	if h.rec != nil {
		h.rec.Record(obs.KCancel, w.seq, 0)
	}
}

// observeWait folds a completed wait's duration into the fairness
// counters: MaxWaitNs keeps the longest registration-to-completion wait,
// Starved counts completions past the configured threshold, and the
// latency histogram records it. since is the registration stamp on the
// recorder's monotonic clock (obs.Now), so a wall-clock step cannot skew
// the duration. Runs under the monitor lock; seq names the waiter in
// recorded events (0 for condition-variable waits, which carry none),
// and a waiter that never registered (since == 0: fast paths,
// folded-true arms) is skipped.
func (h *host) observeWait(since int64, seq uint64) {
	if since == 0 {
		return
	}
	ns := obs.Now() - since
	if ns > h.stats.MaxWaitNs {
		h.stats.MaxWaitNs = ns
	}
	if h.starveNs > 0 && ns > h.starveNs {
		h.stats.Starved++
		if h.rec != nil {
			h.rec.Record(obs.KStarved, seq, ns)
		}
	}
	if h.lat == nil {
		h.lat = new(stats.Histogram)
	}
	h.lat.Observe(time.Duration(ns))
}

// Stats returns a snapshot of the monitor's counters. The flight-
// recorder fields (ObsEvents/ObsDrops) are folded in from the ring here
// rather than maintained per event, so they survive ResetStats as long
// as the ring does.
func (h *host) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats
	if h.rec != nil {
		s.ObsEvents = h.rec.Writes()
		s.ObsDrops = h.rec.Drops()
	}
	return s
}

// WaitLatency returns a copy of the monitor's wake-to-claim latency
// histogram — registration to completion of every non-fast-path wait —
// or nil if no wait has completed.
func (h *host) WaitLatency() *stats.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lat == nil {
		return nil
	}
	l := *h.lat
	return &l
}

// ResetStats zeroes the counters (between benchmark warm-up and the
// measured phase).
func (h *host) ResetStats() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats = Stats{}
}

// Waiting returns the number of registered waiters: goroutines parked in
// a blocking wait plus armed, unclaimed handles. The count becomes
// visible only once the waiter is fully registered (it is updated under
// the monitor lock), so tests can poll it to know a waiter has parked —
// and assert it returns to zero to prove no handle leaked.
func (h *host) Waiting() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.waiting
}

// condHost is the host of the two condition-variable mechanisms,
// Baseline and Explicit: blocking waits park on a sync.Cond, and armed
// handles sit on waitLists beside it. It adds the one wait loop, the one
// broadcast and the one handle arm/claim/cancel that both share.
type condHost struct {
	host
}

// condWait is the blocking wait of the condition-variable mechanisms:
// the preamble, the fast path, then park on c until pred holds,
// re-checking Mesa-style after every wake-up. beforePark, when non-nil,
// runs before each park (Baseline's broadcast). A context or deadline
// arms the shared give-up path with c.Broadcast as its wake: the
// condition's other waiters re-check and park again, as after any
// broadcast, so a Signal the leaving waiter absorbed is not lost. Runs,
// and returns, holding the monitor lock.
func (h *condHost) condWait(ctx context.Context, deadline time.Time, what string, c *sync.Cond, pred func() bool, beforePark func()) error {
	if err := h.awaitStart(ctx, deadline, what); err != nil {
		return err
	}
	if pred() {
		h.stats.FastPath++
		return nil
	}
	// A wait that can give up carries a *Wait as its give-up mark; the
	// plain wait allocates nothing.
	var w *Wait
	if givesUp(ctx, deadline) {
		w = new(Wait)
		h.giveUpOn(ctx, deadline, w, c.Broadcast)
	}
	since := obs.Now()
	h.waiting++
	var parked int64 // start stamp of the latest park, for the await span
	for {
		if beforePark != nil {
			beforePark()
		}
		parked = h.spanStart()
		c.Wait()
		if w != nil && w.err != nil {
			h.waiting--
			h.in = true
			return h.giveUp(w)
		}
		h.stats.Wakeups++
		if pred() {
			break
		}
		h.stats.FutileWakeups++
		if h.rec != nil {
			h.rec.Record(obs.KFutileWake, 0, parked)
		}
	}
	h.waiting--
	h.in = true
	if w != nil {
		w.state = waitClaimed
		w.disarm()
	}
	if h.rec != nil {
		h.rec.Record(obs.KClaim, 0, parked)
	}
	h.observeWait(since, 0)
	return nil
}

// TryFunc is the non-blocking degenerate case of AwaitFunc: one
// evaluation inside the monitor, no parking, no arming.
func (h *condHost) TryFunc(pred func() bool) bool {
	if !h.in {
		panic("autosynch: TryFunc outside the monitor; call Enter first")
	}
	return pred()
}

// broadcast is signalAll on one condition: wake every goroutine parked
// on c and notify every handle armed on l.
func (h *condHost) broadcast(c *sync.Cond, l *waitList) {
	h.stats.Broadcasts++
	if h.rec != nil {
		h.rec.Record(obs.KBroadcast, 0, 0)
	}
	c.Broadcast()
	l.broadcast()
}

// armOn registers a handle on a waiter list, with the immediate
// notification when the predicate already holds (the non-blocking
// analog of the fast path; Claim re-validates anyway). Runs under the
// monitor lock.
func (h *condHost) armOn(l *waitList, pred func() bool) *Wait {
	h.stats.Arms++
	w := newWait(h)
	w.pred = pred
	h.seq++
	w.seq = h.seq
	w.since = obs.Now()
	if h.pol != nil {
		w.rank = h.pol.Rank(nil)
	}
	if h.rec != nil {
		h.rec.Record(obs.KArm, w.seq, w.rank)
	}
	l.add(w)
	h.waiting++
	if pred() {
		w.notify()
	}
	return w
}

// claimLocked re-validates a handle's closure; on success the claimer
// holds the monitor, on failure the handle is re-armed for the next
// notification of its list. The re-armed handle rotates behind its
// list's later registrants, matching a condition queue's FIFO fairness.
func (h *condHost) claimLocked(w *Wait) error {
	if w.pred() {
		h.stats.Claims++
		w.state = waitClaimed
		if h.rec != nil {
			h.rec.Record(obs.KClaim, w.seq, 0)
		}
		h.observeWait(w.since, w.seq)
		w.list.remove(w)
		h.waiting--
		h.in = true
		return nil
	}
	h.stats.FutileClaims++
	if h.rec != nil {
		h.rec.Record(obs.KFutileClaim, w.seq, 0)
	}
	w.rearm()
	w.list.requeue(w)
	return ErrNotReady
}

// cancelLocked drops a cancelled or expired handle from its list. A
// handle that leaves holding a Cond.Signal it never consumed passes the
// signal to the next unnotified handle on its condition, picked as
// Signal picks — java.util.concurrent's Condition redirect rule; without
// it the signal would be lost while another eligible handle waits.
// Broadcast and arm-time notifications take no signal from another
// handle and need no redirect.
func (h *condHost) cancelLocked(w *Wait) {
	h.statAbandon(w)
	l := w.list
	l.remove(w)
	h.waiting--
	if w.viaRelay {
		if next := l.signalOne(h.pol); next != nil && h.rec != nil {
			h.rec.Record(obs.KSignal, next.seq, int64(w.seq))
		}
	}
}
