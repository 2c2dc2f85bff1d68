package obs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// ev builds a test event; ts doubles as insertion order.
func ev(ts int64, kind Kind, mon uint32, seq uint64, arg int64) Event {
	return Event{TS: ts, Kind: kind, Mon: mon, Seq: seq, Arg: arg}
}

func TestChainsSingleSignal(t *testing.T) {
	chains := Chains([]Event{
		ev(1, KSignal, 0, 10, 0),
		ev(2, KClaim, 0, 10, 0),
	})
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	c := chains[0]
	if c.Len() != 1 || c.Hops() != 0 || !c.Claimed || c.Cancelled || c.Expired {
		t.Fatalf("chain = %+v", c)
	}
	if c.Start != 1 || c.End != 2 {
		t.Fatalf("Start/End = %d/%d", c.Start, c.End)
	}
}

func TestChainsRelayHops(t *testing.T) {
	// Exit signals 10; 10 wakes futilely, relays to 11 (origin 10);
	// 11 claims. One chain, two signals, one hop.
	chains := Chains([]Event{
		ev(1, KSignal, 0, 10, 0),
		ev(2, KFutileWake, 0, 10, 0),
		ev(3, KSignal, 0, 11, 10),
		ev(4, KClaim, 0, 11, 0),
	})
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	c := chains[0]
	if c.Len() != 2 || c.Hops() != 1 || c.FutileWakes != 1 || !c.Claimed {
		t.Fatalf("chain = %+v", c)
	}
	if want := []uint64{10, 11}; !reflect.DeepEqual(c.Seqs, want) {
		t.Fatalf("Seqs = %v, want %v", c.Seqs, want)
	}
}

func TestChainsFutileClaimLoop(t *testing.T) {
	// Armed handle 10 claims futilely twice (re-armed each time, chain
	// stays open at 10 because the same waiter holds the baton), then a
	// relay with origin 10 hands to 11 which claims.
	chains := Chains([]Event{
		ev(1, KSignal, 0, 10, 0),
		ev(2, KFutileClaim, 0, 10, 0),
		ev(3, KFutileClaim, 0, 10, 0),
		ev(4, KSignal, 0, 11, 10),
		ev(5, KClaim, 0, 11, 0),
	})
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	c := chains[0]
	if c.FutileClaims != 2 || c.Len() != 2 || !c.Claimed {
		t.Fatalf("chain = %+v", c)
	}
}

func TestChainsMonitorsIndependent(t *testing.T) {
	// Same seqs on two monitors must not join.
	chains := Chains([]Event{
		ev(1, KSignal, 0, 10, 0),
		ev(2, KSignal, 1, 11, 10), // origin 10 is on monitor 0 — no join
		ev(3, KClaim, 0, 10, 0),
		ev(4, KClaim, 1, 11, 0),
	})
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(chains))
	}
	for _, c := range chains {
		if c.Len() != 1 || !c.Claimed {
			t.Fatalf("chain = %+v", c)
		}
	}
}

func TestChainsPolicyCancelExpireOpen(t *testing.T) {
	chains := Chains([]Event{
		// Policy-decided wake that gets cancelled.
		ev(1, KSignal, 0, 10, 0),
		ev(2, KPolicyWake, 0, 10, 3),
		ev(3, KCancel, 0, 10, 0),
		// A wake that expires (KExpire closes; trailing KCancel from the
		// abandon unwind finds the chain already closed — harmless).
		ev(4, KSignal, 0, 11, 0),
		ev(5, KExpire, 0, 11, 0),
		ev(6, KCancel, 0, 11, 0),
		// A chain the window cuts off.
		ev(7, KSignal, 0, 12, 0),
	})
	if len(chains) != 3 {
		t.Fatalf("chains = %d, want 3", len(chains))
	}
	if c := chains[0]; !c.Cancelled || c.PolicyWakes != 1 {
		t.Fatalf("cancelled chain = %+v", c)
	}
	if c := chains[1]; !c.Expired || c.Cancelled {
		t.Fatalf("expired chain = %+v", c)
	}
	if c := chains[2]; c.Closed() {
		t.Fatalf("open chain reported closed: %+v", c)
	}
}

func TestChainsSortsByTimestamp(t *testing.T) {
	// Events delivered out of order (merged rings) still reconstruct.
	chains := Chains([]Event{
		ev(4, KClaim, 0, 11, 0),
		ev(1, KSignal, 0, 10, 0),
		ev(3, KSignal, 0, 11, 10),
		ev(2, KFutileWake, 0, 10, 0),
	})
	if len(chains) != 1 || chains[0].Len() != 2 || !chains[0].Claimed {
		t.Fatalf("chains = %+v", chains)
	}
}

func TestAnalyze(t *testing.T) {
	var evs []Event
	ts := int64(0)
	next := func(kind Kind, seq uint64, arg int64) {
		ts++
		evs = append(evs, ev(ts, kind, 0, seq, arg))
	}
	// Chain 1: storm of StormLen signals, claimed, 7 futile wakes.
	for i := 0; i < StormLen; i++ {
		seq := uint64(100 + i)
		var origin int64
		if i > 0 {
			origin = int64(100 + i - 1)
		}
		next(KSignal, seq, origin)
		if i < StormLen-1 {
			next(KFutileWake, seq, 0)
		}
	}
	next(KClaim, uint64(100+StormLen-1), 0)
	// Chain 2: single policy wake, cancelled.
	next(KSignal, 200, 0)
	next(KPolicyWake, 200, 5)
	next(KCancel, 200, 0)
	// Chain 3: expired. Chain 4: left open.
	next(KSignal, 300, 0)
	next(KExpire, 300, 0)
	next(KSignal, 400, 0)

	a := Analyze(evs, 9)
	want := Analysis{
		Events:      len(evs),
		Drops:       9,
		Chains:      4,
		Signals:     StormLen + 3,
		Hops:        StormLen - 1,
		MaxLen:      StormLen,
		MeanLen:     float64(StormLen+3) / 4,
		Storms:      1,
		OpenEnded:   1,
		Claimed:     1,
		Cancelled:   1,
		Expired:     1,
		PolicyWakes: 1,
		FutileWakes: StormLen - 1,
		FutileRatio: float64(StormLen-1) / float64(StormLen+3),
	}
	if a != want {
		t.Fatalf("Analyze =\n%+v\nwant\n%+v", a, want)
	}
}

// TestAnalyzeSpans pins the phase totals behind Table 1: every span
// event adds TS − Arg to its phase, and an event with no start stamp (a
// handle claim, a trace recorded before spans) adds nothing. Arg of the
// non-span kinds is not a stamp and must not leak into any phase.
func TestAnalyzeSpans(t *testing.T) {
	a := Analyze([]Event{
		ev(100, KEnter, 0, 0, 90),       // lock 10
		ev(150, KEnter, 0, 0, 0),        // no stamp
		ev(300, KFutileWake, 0, 5, 250), // await 50
		ev(400, KClaim, 0, 5, 330),      // await 70
		ev(410, KClaim, 0, 6, 0),        // handle claim: never parked
		ev(500, KRelay, 0, 0, 497),      // relay 3
		ev(600, KTag, 0, 0, 580),        // tag 20
		ev(700, KTag, 1, 0, 695),        // tag 5, on another monitor
		ev(800, KStarved, 0, 5, 1000),   // Arg is a wait duration
		ev(900, KSignal, 0, 7, 5),       // Arg is a relay origin
		ev(950, KPolicyWake, 0, 7, 40),  // Arg is a policy rank
	}, 0)
	if a.LockNs != 10 || a.AwaitNs != 120 || a.RelayNs != 3 || a.TagNs != 25 {
		t.Fatalf("phases: lock=%d await=%d relay=%d tag=%d, want 10 120 3 25",
			a.LockNs, a.AwaitNs, a.RelayNs, a.TagNs)
	}
	for _, want := range []string{"await=120ns", "lock=10ns", "relay=3ns", "tag=25ns"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("String lacks %q:\n%s", want, a)
		}
	}
}

// TestAnalysisStringComplete is the obs-side completeness gate the ISSUE
// asks for: every Analysis field must be visible in String(), so a
// counter added to the analysis cannot silently vanish from reports.
func TestAnalysisStringComplete(t *testing.T) {
	typ := reflect.TypeOf(Analysis{})
	zero := Analysis{}.String()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		a := Analysis{}
		fv := reflect.ValueOf(&a).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(7)
		case reflect.Uint64:
			fv.SetUint(7)
		case reflect.Float64:
			fv.SetFloat(7.5)
		default:
			t.Fatalf("field %s: unhandled kind %v — extend this test", f.Name, f.Type.Kind())
		}
		if a.String() == zero {
			t.Errorf("field %s does not affect Analysis.String()", f.Name)
		}
	}
}

func TestLengthTable(t *testing.T) {
	chains := Chains([]Event{
		ev(1, KSignal, 0, 10, 0),
		ev(2, KClaim, 0, 10, 0),
		ev(3, KSignal, 0, 11, 0),
		ev(4, KFutileWake, 0, 11, 0),
		ev(5, KSignal, 0, 12, 11),
		ev(6, KClaim, 0, 12, 0),
		ev(7, KSignal, 0, 13, 0),
	})
	table := LengthTable(chains)
	for _, want := range []string{"len", "chains", "open", "futile-ratio"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	// Three buckets: len 1 ×2 (one open), len 2 ×1 with futile ratio 0.5.
	if !strings.Contains(table, "0.500") {
		t.Fatalf("table missing len-2 futile ratio:\n%s", table)
	}
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 3 { // header + two length buckets
		t.Fatalf("table rows = %d:\n%s", len(lines), table)
	}
	if LengthTable(nil) != "no chains\n" {
		t.Fatalf("empty table = %q", LengthTable(nil))
	}
}

func TestChainStringerSmoke(t *testing.T) {
	// Kind names render in diagnostics without panicking.
	for k := Kind(0); k <= kindMax; k++ {
		_ = fmt.Sprintf("%v", k)
	}
}
