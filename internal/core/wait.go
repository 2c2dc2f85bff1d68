package core

import (
	"errors"
	"time"

	"repro/internal/policy"
)

// Handle lifecycle sentinels. ErrNotReady is the expected return of a
// futile Claim (the handle has been re-armed and will fire again);
// ErrClaimed and ErrCancelled report misuse of a finished handle.
var (
	// ErrNotReady is returned by Wait.Claim when a racing mutation
	// falsified the predicate between notification and the claim. The
	// handle has been transparently re-armed: the claim loop calls Ready
	// and simply selects again.
	ErrNotReady = errors.New("autosynch: predicate no longer holds; wait handle re-armed")

	// ErrClaimed is returned by Wait.Claim on a handle that was already
	// claimed successfully.
	ErrClaimed = errors.New("autosynch: wait handle already claimed")

	// ErrCancelled is reported by Wait.Err and Wait.Claim after Cancel.
	ErrCancelled = errors.New("autosynch: wait handle cancelled")

	// ErrDeadline is returned by the deadline-aware waits
	// (AwaitDeadline/AwaitTimeout/AwaitFuncDeadline) and reported by a
	// handle whose Wait.Deadline passed before it was claimed. Like a
	// context cancellation, expiry takes priority once observed: a waiter
	// woken by its deadline returns ErrDeadline even if its predicate has
	// just become true, and relay invariance is restored before it
	// returns (the in-flight signal, if it held one, is reconciled and
	// relayed onward).
	ErrDeadline = errors.New("autosynch: wait deadline exceeded")
)

// waitState is the lifecycle of a handle: armed (registered, waiting to
// be notified or re-validated), claimed (the wait completed; the claimer
// holds the monitor), or cancelled (unregistered without completing —
// by Cancel or because arming itself failed).
type waitState uint8

const (
	waitArmed waitState = iota
	waitClaimed
	waitCancelled
)

// waitHost is the mechanism half of a handle: the shared host supplies
// the lock and the expiry count, and Monitor or condHost (Baseline,
// Explicit) the registration-aware claim and cancel steps, so one Wait
// type serves all three mechanisms uniformly.
type waitHost interface {
	lockWait()
	unlockWait()
	// claimLocked runs under the host lock with the handle armed. On nil
	// it has marked the handle claimed, unregistered it, and left the
	// monitor HELD for the caller; on ErrNotReady it has re-armed the
	// handle and the generic wrapper releases the lock.
	claimLocked(w *Wait) error
	// cancelLocked unregisters an armed handle and restores the host's
	// signaling invariants. The generic wrapper (Wait.end) has already
	// moved the handle to waitCancelled; it closes the channel after.
	cancelLocked(w *Wait)
	// statExpired counts one deadline expiry (of handle w) under the
	// host lock.
	statExpired(w *Wait)
}

// Wait is a first-class armed waiter: the waituntil of the paper without
// the parked goroutine. Predicate.Arm (and the per-mechanism ArmFunc)
// registers the waiter with the condition manager exactly like a blocking
// Await, but delivers the notification by closing a channel instead of
// unparking a goroutine — so one goroutine can multiplex any number of
// armed waits with select:
//
//	w := notEmpty.Arm()
//	select {
//	case <-w.Ready():
//	    if err := w.Claim(); err == autosynch.ErrNotReady {
//	        continue // falsified by a racing mutation; handle re-armed
//	    }
//	    // predicate true, monitor held: consume, then Exit.
//	    take()
//	    m.Exit()
//	case <-other:
//	    ...
//	}
//
// Ready fires when the mechanism decides this waiter's predicate has
// become true (relay signaling for Monitor, a broadcast for Baseline, a
// manual signal for Explicit). Notification is decoupled from monitor
// handoff: the claimer re-enters the monitor and re-validates Mesa-style,
// because the state may have changed since the channel was closed.
//
// An armed handle counts toward Waiting() and, for Monitor, may hold the
// mechanism's single in-flight relay signal; a handle that fires must be
// claimed or cancelled promptly, and every armed handle must eventually
// be claimed or cancelled, or its monitor's signaling stalls (exactly as
// if a signaled thread were never scheduled again).
//
// All methods are safe for concurrent use, but Claim and Cancel acquire
// the monitor internally — do not call them while holding it.
type Wait struct {
	host waitHost

	// All remaining fields are guarded by the host's monitor lock. A
	// handle's ready channel is made by the first Ready of an arm cycle,
	// closed to notify, and dropped on re-arm, so a handle that is only
	// subscribed never makes one; a blocking waiter's (blocking set;
	// never seen by a caller) has room for the one token a notification
	// sends, and is kept for reuse.
	ready     chan struct{}
	blocking  bool
	state     waitState
	notified  bool  // the current arm cycle's notification is delivered
	viaRelay  bool  // the notification is an unconsumed signal: Monitor's relay or a Cond.Signal
	deadlined bool  // a deadline was armed; sticky, so RearmClaimed refuses the handle
	err       error // terminal error (arm failure, ErrCancelled, ErrDeadline) or a parked wait's give-up mark
	e         *entry
	pred      func() bool // Baseline/Explicit re-validation closure
	list      *waitList   // registration list for list-based hosts
	idx       int         // position in e.waiters or list.ws

	// Wake-policy and give-up state. seq is the host-global arrival
	// sequence and rank the registration-time policy rank — together the
	// policy.Candidate the wake policy compares. since is the
	// registration stamp on the monotonic obs.Now clock, feeding
	// MaxWaitNs/Starved; timer the armed deadline, if any, and stopCtx
	// the context callback of a blocking wait that can be cancelled (see
	// host.giveUpOn).
	seq     uint64
	rank    int64
	since   int64
	timer   *time.Timer
	stopCtx func() bool

	// Select subscription: when set, every notification additionally
	// delivers selIdx on selCh, so one goroutine can park on a single
	// channel shared by any number of handles (across monitors and
	// mechanisms) instead of reflect.Select's O(N) case walk. The
	// subscription survives re-arming: a futile claim re-arms the handle
	// and the next notification delivers again.
	selCh  chan int
	selIdx int
}

// newWait constructs an armed handle for a host, without a ready
// channel: Ready makes one on demand. Registration is the host's job.
func newWait(h waitHost) *Wait {
	return &Wait{host: h, idx: -1}
}

// failedWait is a handle whose arming failed: Ready is already closed,
// Claim and Err report the error, Cancel is a no-op.
func failedWait(err error) *Wait {
	w := &Wait{state: waitCancelled, err: err, ready: make(chan struct{}), idx: -1}
	close(w.ready)
	w.notified = true
	return w
}

// notify delivers the current arm cycle's notification: it closes a
// handle's ready channel if Ready has made one (a later Ready returns it
// closed), or sends a blocking waiter its one token (the notified flag
// allows one per cycle). Idempotent; runs under the host lock.
func (w *Wait) notify() {
	if w.notified {
		return
	}
	w.notified = true
	if w.blocking {
		w.ready <- struct{}{}
	} else if w.ready != nil {
		close(w.ready)
	}
	if w.selCh != nil {
		// At most one delivery is outstanding per handle (notify is gated
		// by the notified flag and re-arming happens under the subscriber's
		// own claim), so a buffered channel sized to the subscription count
		// never drops; the non-blocking send only discards post-teardown
		// courtesy closes from Cancel.
		select {
		case w.selCh <- w.selIdx:
		default:
		}
	}
}

// rearm resets the waiter for another notification cycle: cleared
// delivery flags and, for a handle, no channel (the next Ready makes a
// fresh one; a blocking waiter's goroutine has received its token and
// keeps its channel). A handle never notified keeps its channel, still
// open, so a goroutine already receiving from it is woken by the next
// notification. Runs under the host lock; the caller settles any
// in-flight-signal accounting first.
func (w *Wait) rearm() {
	if !w.notified {
		return
	}
	w.notified = false
	w.viaRelay = false
	if !w.blocking {
		w.ready = nil
	}
}

// subscribe attaches a shared Select delivery channel to the handle: the
// current and every future notification (the subscription survives
// re-arming) sends idx on ch. A handle that is already notified — or
// whose arming failed, leaving it born-notified — delivers immediately,
// so a subscriber can never miss the arm-time evaluation.
func (w *Wait) subscribe(ch chan int, idx int) {
	if w.host == nil {
		select {
		case ch <- idx:
		default:
		}
		return
	}
	w.host.lockWait()
	w.selCh, w.selIdx = ch, idx
	if w.notified {
		select {
		case ch <- idx:
		default:
		}
	}
	w.host.unlockWait()
}

// Subscribe attaches a standing delivery channel to the handle: the
// current and every future notification (the subscription survives the
// transparent re-arm after a futile Claim) sends idx on ch, so one
// goroutine can multiplex any number of armed handles by receiving from
// a single channel — the mechanism behind Select, exposed for daemons
// that hold long-lived handle populations (internal/watchd).
//
// The contract that makes delivery lossless: ch must be buffered, and the
// subscriber must guarantee capacity for every notification that can be
// outstanding at once. A handle sends at most once per arm cycle (the
// notified flag gates it), and a new cycle begins only after the previous
// notification was consumed — via Claim (success starts no cycle; a
// futile claim re-arms) — so a population of N live handles needs
// capacity N, plus one slot per cancelled handle whose final notification
// (Cancel's courtesy delivery) has not yet been received. Sends never
// block: a notification that finds the channel full is dropped, which
// the sizing rule above must make impossible for live handles.
//
// A handle already notified — or born notified because arming failed —
// delivers immediately, so a subscriber cannot miss the arm-time
// evaluation. Subscribing again replaces the previous subscription.
func (w *Wait) Subscribe(ch chan int, idx int) { w.subscribe(ch, idx) }

// Ready returns the channel that is closed when the waiter is notified.
// A futile Claim that came after a notification re-arms the handle with a
// fresh channel, so a select loop must call Ready again on each iteration
// rather than caching the first channel. A futile Claim before any
// notification keeps the open channel.
//
// The channel is made by the first Ready of an arm cycle, closed at once
// if the cycle is already notified, so a handle that is only subscribed
// (Subscribe, Select) allocates none.
func (w *Wait) Ready() <-chan struct{} {
	if w.host == nil {
		return w.ready
	}
	w.host.lockWait()
	if w.ready == nil {
		w.ready = make(chan struct{})
		if w.notified {
			close(w.ready)
		}
	}
	ch := w.ready
	w.host.unlockWait()
	return ch
}

// Claim completes the wait: it re-enters the monitor and re-validates the
// predicate Mesa-style. On nil the caller HOLDS the monitor with the
// predicate true — the handle is spent, and the usual critical section
// ends with Exit. If a racing mutation falsified the predicate, Claim
// re-arms the handle transparently and returns ErrNotReady without the
// monitor; select on Ready again. A cancelled or arm-failed handle
// returns its terminal error, an already-claimed one ErrClaimed.
//
// Claim may be called before Ready fires; it then simply answers whether
// the predicate holds right now (claiming eagerly, or re-arming).
func (w *Wait) Claim() error {
	if w.host == nil {
		return w.err
	}
	w.host.lockWait()
	switch w.state {
	case waitClaimed:
		w.host.unlockWait()
		return ErrClaimed
	case waitCancelled:
		err := w.err
		w.host.unlockWait()
		return err
	}
	err := w.host.claimLocked(w)
	if err != nil {
		w.host.unlockWait()
		return err
	}
	w.disarm()
	return nil
}

// Deadline arms a deadline on the handle: if it is still armed when t
// passes, the handle is cancelled with ErrDeadline — Ready fires (so a
// selecting goroutine unblocks), Claim and Err report ErrDeadline, and
// the host's signaling invariants are restored exactly as by Cancel (an
// in-flight relay signal is reconciled and relayed onward). A successful
// Claim or an explicit Cancel first disarms the timer. Arming a second
// deadline replaces the first. Deadline returns its receiver so it chains
// off Arm: p.Arm(binds...).Deadline(t). The expiry is a runtime timer
// (time.AfterFunc): a pending deadline holds no goroutine, and the
// expiry never fires before t. A handle that armed a deadline is never
// re-armed in place (RearmClaimed): its timer's callback may already be
// waiting for the monitor when a claim stops the timer.
func (w *Wait) Deadline(t time.Time) *Wait {
	if w.host == nil {
		return w
	}
	w.host.lockWait()
	if w.state == waitArmed {
		w.disarm() // a second deadline replaces the first
		w.timer = time.AfterFunc(time.Until(t), func() { w.end(ErrDeadline) })
		w.deadlined = true
	}
	w.host.unlockWait()
	return w
}

// Timeout is Deadline relative to now.
func (w *Wait) Timeout(d time.Duration) *Wait { return w.Deadline(time.Now().Add(d)) }

// end finishes an armed handle without a claim, with ErrCancelled from
// Cancel or ErrDeadline from its deadline's timer: the host unregisters
// it and restores its signaling invariants, and Ready closes. Only an
// expiry counts Expired, recorded before the cancel's Abandon. Racing
// ends and claims are settled by the host lock: on a handle already
// claimed or ended, end does nothing.
func (w *Wait) end(err error) {
	w.host.lockWait()
	defer w.host.unlockWait()
	if w.state != waitArmed {
		return
	}
	w.state = waitCancelled
	w.err = err
	w.disarm()
	if err == ErrDeadline {
		w.host.statExpired(w)
	}
	// Unregister before closing the channel: the host's bookkeeping (the
	// entry's unnotified count, for Monitor) distinguishes delivered
	// notifications from the courtesy close.
	w.host.cancelLocked(w)
	w.notify()
}

// disarm stops the waiter's give-up triggers: its deadline timer and its
// context callback, if any. Runs under the host lock.
func (w *Wait) disarm() {
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	if w.stopCtx != nil {
		w.stopCtx()
		w.stopCtx = nil
	}
}

// cand is the waiter's identity for wake-policy comparisons.
func cand(w *Wait) policy.Candidate { return policy.Candidate{Seq: w.seq, Rank: w.rank} }

// Cancel abandons an armed handle: it is unregistered from the predicate
// table and tag structures, any in-flight signal addressed to it is
// reconciled and relayed onward (relay invariance survives, exactly as
// for a context-cancelled Await), and Ready is closed so a selecting
// goroutine unblocks. Err reports ErrCancelled afterwards. Cancelling a
// claimed, failed, or already-cancelled handle is a no-op.
func (w *Wait) Cancel() {
	if w.host != nil {
		w.end(ErrCancelled)
	}
}

// Err returns the handle's terminal error: nil while armed or after a
// successful claim, ErrCancelled after Cancel, or the arming error for a
// handle whose Arm failed (malformed bindings, ErrNeverTrue, …).
func (w *Wait) Err() error {
	if w.host == nil {
		return w.err
	}
	w.host.lockWait()
	err := w.err
	w.host.unlockWait()
	return err
}

// waitList is the waiter registry of the broadcast- and signal-based
// mechanisms (Baseline, Explicit): an order-indifferent set with O(1)
// add/remove and notification sweeps. All methods run under the owning
// monitor's lock.
type waitList struct {
	ws []*Wait
}

func (l *waitList) add(w *Wait) {
	w.list = l
	w.idx = len(l.ws)
	l.ws = append(l.ws, w)
}

func (l *waitList) remove(w *Wait) {
	last := len(l.ws) - 1
	moved := l.ws[last]
	l.ws[w.idx] = moved
	moved.idx = w.idx
	l.ws[last] = nil
	l.ws = l.ws[:last]
	w.idx = -1
	w.list = nil
}

// broadcast notifies every registered waiter.
func (l *waitList) broadcast() {
	for _, w := range l.ws {
		w.notify()
	}
}

// signalOne notifies one not-yet-notified waiter, mirroring
// sync.Cond.Signal, and marks it as holding the signal until it claims;
// returns the notified waiter, or nil when every waiter is already
// notified (or the list is empty). Without a policy the pick is list
// order; with one, the policy compares every eligible handle and the
// best wakes — the explicit-monitor half of the pluggable wake policies.
func (l *waitList) signalOne(pol policy.Policy) *Wait {
	var best *Wait
	for _, w := range l.ws {
		if w.notified {
			continue
		}
		if pol == nil {
			best = w
			break
		}
		if best == nil || pol.Better(cand(w), cand(best)) {
			best = w
		}
	}
	if best != nil {
		best.notify()
		best.viaRelay = true
	}
	return best
}

// requeue moves a futile-woken waiter behind the waiters registered after
// it, mirroring a condition variable's FIFO rotation: a waiter whose
// predicate stays false cannot absorb every future signal while a
// runnable waiter starves behind it.
func (l *waitList) requeue(w *Wait) {
	l.remove(w)
	l.add(w)
}
