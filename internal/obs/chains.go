package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// A Chain is one reconstructed wake chain: the causal path a wake-up
// takes through the monitor from the signal that started it, across
// relay hops (each woken waiter passing the baton onward when it exits
// or goes futile), to the claim, cancellation, or expiry that ends it.
// Under the single-pending-signal discipline at most one chain is "hot"
// per monitor at a time, which is what makes the reconstruction exact:
// a KSignal whose origin seq matches a chain's current head extends that
// chain.
type Chain struct {
	Mon  uint32   // ring id of the monitor the chain ran on
	Seqs []uint64 // signaled waiter seqs, in causal order (len = signals)

	FutileWakes  int // wake-ups along the chain that re-parked
	FutileClaims int // handle claims along the chain that re-armed
	PolicyWakes  int // hops whose target a wake policy selected

	Claimed   bool // ended in a successful claim/wait completion
	Cancelled bool // ended in an abandon/cancel
	Expired   bool // ended in a deadline expiry

	Start, End int64 // TS of the first signal and of the closing event
}

// Len is the chain length in signals (1 = a signal answered directly,
// no relaying).
func (c *Chain) Len() int { return len(c.Seqs) }

// Hops is the number of relay handoffs (Len - 1).
func (c *Chain) Hops() int {
	if len(c.Seqs) == 0 {
		return 0
	}
	return len(c.Seqs) - 1
}

// Closed reports whether the chain's ending was observed in the window.
func (c *Chain) Closed() bool { return c.Claimed || c.Cancelled || c.Expired }

// chainKey identifies the waiter currently holding a chain's baton.
type chainKey struct {
	mon uint32
	seq uint64
}

// Chains reconstructs wake chains from an event stream (any order; it is
// re-sorted by timestamp). A KSignal whose origin matches an open
// chain's head extends that chain; otherwise it roots a new one. KClaim,
// KCancel, and KExpire on a chain's head close it; KFutileWake,
// KFutileClaim, and KPolicyWake annotate it. Chains cut off by the
// window (ring wrap, recorder stopped mid-wake) are returned unclosed.
func Chains(events []Event) []*Chain {
	evs := append([]Event(nil), events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })

	open := make(map[chainKey]*Chain)
	var chains []*Chain
	for _, ev := range evs {
		key := chainKey{ev.Mon, ev.Seq}
		switch ev.Kind {
		case KSignal:
			// ev.Arg carries the origin seq: the waiter whose consumed
			// notification this relay continues.
			if ev.Arg != 0 {
				if c, ok := open[chainKey{ev.Mon, uint64(ev.Arg)}]; ok {
					delete(open, chainKey{ev.Mon, uint64(ev.Arg)})
					c.Seqs = append(c.Seqs, ev.Seq)
					// The origin may equal the target only if the ring lost
					// the intervening close; re-keying is still correct.
					open[key] = c
					continue
				}
			}
			c := &Chain{Mon: ev.Mon, Seqs: []uint64{ev.Seq}, Start: ev.TS}
			chains = append(chains, c)
			open[key] = c
		case KPolicyWake:
			if c, ok := open[key]; ok {
				c.PolicyWakes++
			}
		case KFutileWake:
			if c, ok := open[key]; ok {
				c.FutileWakes++
			}
		case KFutileClaim:
			if c, ok := open[key]; ok {
				c.FutileClaims++
			}
		case KClaim:
			if c, ok := open[key]; ok {
				c.Claimed = true
				c.End = ev.TS
				delete(open, key)
			}
		case KCancel:
			if c, ok := open[key]; ok {
				c.Cancelled = true
				c.End = ev.TS
				delete(open, key)
			}
		case KExpire:
			if c, ok := open[key]; ok {
				c.Expired = true
				c.End = ev.TS
				delete(open, key)
			}
		}
	}
	return chains
}

// StormLen is the chain length at and above which a chain counts as a
// relay storm in Analysis: one wake-up fanning out across that many
// handoffs means waiters are being woken mostly to pass the baton, not
// to make progress.
const StormLen = 8

// Analysis summarizes an event window: the chain population, how chains
// end, how much of the signal traffic was futile, and where the time
// went — the span totals of the paper's Table 1. Every field is
// rendered by String; the completeness test in this package enforces
// that, so a field added here cannot silently vanish from reports.
type Analysis struct {
	Events int    // events analyzed
	Drops  uint64 // ring drops in the window (recorder-reported)

	Chains    int // wake chains reconstructed
	Signals   int // total signals across chains
	Hops      int // relay handoffs (signals beyond each chain's first)
	MaxLen    int // longest chain, in signals
	MeanLen   float64
	Storms    int // chains of StormLen or longer
	OpenEnded int // chains the window cut off before their close

	Claimed   int // chains ended by a successful claim
	Cancelled int // chains ended by an abandon/cancel
	Expired   int // chains ended by a deadline expiry

	PolicyWakes  int     // policy-selected wake-ups across chains
	FutileWakes  int     // wake-ups that re-parked
	FutileClaims int     // claims that re-armed
	FutileRatio  float64 // (FutileWakes+FutileClaims) / Signals

	// Phase totals in nanoseconds, summed over the span events. A trace
	// recorded before spans existed reads with all four zero.
	AwaitNs int64 // parked in blocking waits: KClaim and KFutileWake spans
	LockNs  int64 // acquiring the monitor lock: KEnter spans
	RelayNs int64 // relay searches and their signals: KRelay spans
	TagNs   int64 // tag-structure maintenance: KTag spans
}

// Analyze reconstructs chains from the events and summarizes them.
// Drops is the recorder's drop count for the same window (0 if unknown);
// it is carried through so reports show when the window is lossy.
func Analyze(events []Event, drops uint64) Analysis {
	chains := Chains(events)
	a := Analysis{Events: len(events), Drops: drops, Chains: len(chains)}
	for _, c := range chains {
		a.Signals += c.Len()
		a.Hops += c.Hops()
		if c.Len() > a.MaxLen {
			a.MaxLen = c.Len()
		}
		if c.Len() >= StormLen {
			a.Storms++
		}
		if !c.Closed() {
			a.OpenEnded++
		}
		if c.Claimed {
			a.Claimed++
		}
		if c.Cancelled {
			a.Cancelled++
		}
		if c.Expired {
			a.Expired++
		}
		a.PolicyWakes += c.PolicyWakes
		a.FutileWakes += c.FutileWakes
		a.FutileClaims += c.FutileClaims
	}
	if a.Chains > 0 {
		a.MeanLen = float64(a.Signals) / float64(a.Chains)
	}
	if a.Signals > 0 {
		a.FutileRatio = float64(a.FutileWakes+a.FutileClaims) / float64(a.Signals)
	}
	for _, ev := range events {
		switch ev.Kind {
		case KClaim, KFutileWake:
			a.AwaitNs += span(ev)
		case KEnter:
			a.LockNs += span(ev)
		case KRelay:
			a.RelayNs += span(ev)
		case KTag:
			a.TagNs += span(ev)
		}
	}
	return a
}

// span returns the length of a span event, TS − Arg, or 0 when the event
// carries no start stamp: a handle claim, or a trace recorded before
// spans existed.
func span(ev Event) int64 {
	if ev.Arg == 0 {
		return 0
	}
	return ev.TS - ev.Arg
}

// String renders the analysis on three lines: the chain population and
// shape, the outcome and futility accounting, then the phase totals.
// Every Analysis field appears.
func (a Analysis) String() string {
	return fmt.Sprintf(
		"events=%d drops=%d chains=%d signals=%d hops=%d max-len=%d mean-len=%.2f storms=%d open=%d\n"+
			"claimed=%d cancelled=%d expired=%d policy-wakes=%d futile-wakes=%d futile-claims=%d futile-ratio=%.3f\n"+
			"await=%v lock=%v relay=%v tag=%v",
		a.Events, a.Drops, a.Chains, a.Signals, a.Hops, a.MaxLen, a.MeanLen, a.Storms, a.OpenEnded,
		a.Claimed, a.Cancelled, a.Expired, a.PolicyWakes, a.FutileWakes, a.FutileClaims, a.FutileRatio,
		time.Duration(a.AwaitNs), time.Duration(a.LockNs), time.Duration(a.RelayNs), time.Duration(a.TagNs))
}

// LengthTable renders the chain-length distribution with per-bucket
// futility: one row per observed chain length, with how many chains had
// it, how many of those the window cut off, and the futile wake/claim
// ratio inside that bucket. This is the body of the CLI analyze mode.
func LengthTable(chains []*Chain) string {
	if len(chains) == 0 {
		return "no chains\n"
	}
	type bucket struct {
		count, open, futile, signals int
	}
	buckets := make(map[int]*bucket)
	var lens []int
	for _, c := range chains {
		b, ok := buckets[c.Len()]
		if !ok {
			b = &bucket{}
			buckets[c.Len()] = b
			lens = append(lens, c.Len())
		}
		b.count++
		if !c.Closed() {
			b.open++
		}
		b.futile += c.FutileWakes + c.FutileClaims
		b.signals += c.Len()
	}
	sort.Ints(lens)

	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %8s %8s %14s\n", "len", "chains", "open", "futile-ratio")
	for _, l := range lens {
		b := buckets[l]
		ratio := 0.0
		if b.signals > 0 {
			ratio = float64(b.futile) / float64(b.signals)
		}
		fmt.Fprintf(&sb, "%8d %8d %8d %14.3f\n", l, b.count, b.open, ratio)
	}
	return sb.String()
}
