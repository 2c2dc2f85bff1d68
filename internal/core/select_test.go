package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestSelectFirstTrueAcrossMonitors: two independent monitors, one
// Select; whichever predicate becomes true first wins, its body runs
// under that monitor, and the loser is cancelled with nothing left
// registered on either monitor.
func TestSelectFirstTrueAcrossMonitors(t *testing.T) {
	for winner := 0; winner < 2; winner++ {
		ma, mb := New(), New()
		xa, xb := ma.NewInt("x", 0), mb.NewInt("x", 0)
		ga := ma.MustCompile("x > 0").When()
		gb := mb.MustCompile("x > 0").When()

		type outcome struct {
			idx int
			err error
		}
		res := make(chan outcome, 1)
		var ranA, ranB bool
		go func() {
			idx, err := Select(
				ga.Then(func() { ranA = true; xa.Add(-1) }),
				gb.Then(func() { ranB = true; xb.Add(-1) }),
			)
			res <- outcome{idx, err}
		}()
		// Both guards must be armed (parked) before the winner fires, so
		// the win is decided by notification, not by the initial poll.
		testutil.WaitFor(t, 10*time.Second, 0,
			func() bool { return ma.Waiting() == 1 && mb.Waiting() == 1 },
			"both guards armed")
		if winner == 0 {
			ma.Do(func() { xa.Add(1) })
		} else {
			mb.Do(func() { xb.Add(1) })
		}
		o := <-res
		if o.err != nil {
			t.Fatalf("Select: %v", o.err)
		}
		if o.idx != winner || (winner == 0) != ranA || (winner == 1) != ranB {
			t.Fatalf("winner = %d (ranA=%v ranB=%v), want %d", o.idx, ranA, ranB, winner)
		}
		for i, m := range []*Monitor{ma, mb} {
			testutil.WaitFor(t, 5*time.Second, 0, func() bool { return m.Waiting() == 0 },
				"monitor %d drained", i)
		}
	}
}

// TestSelectAcrossMechanisms: one Select spanning an automatic monitor,
// a baseline, and an explicit condition. Fire each in turn; the right
// body runs and no mechanism leaks a waiter.
func TestSelectAcrossMechanisms(t *testing.T) {
	m := New()
	xm := m.NewInt("x", 0)
	b := NewBaseline()
	var xb int64
	e := NewExplicit()
	ce := e.NewCond()
	var xe int64

	cases := []Case{
		m.MustCompile("x > 0").When().Then(func() { xm.Add(-1) }),
		b.WhenFunc(func() bool { return xb > 0 }).Then(func() { xb-- }),
		ce.When(func() bool { return xe > 0 }).Then(func() { xe-- }),
	}
	fire := []func(){
		func() { m.Do(func() { xm.Add(1) }) },
		func() { b.Do(func() { xb++ }) },
		func() { e.Do(func() { xe++; ce.Signal() }) },
	}
	mechs := []Mechanism{m, b, e}

	for want := range cases {
		res := make(chan int, 1)
		go func() {
			idx, err := Select(cases...)
			if err != nil {
				t.Error(err)
			}
			res <- idx
		}()
		testutil.WaitFor(t, 10*time.Second, 0, func() bool {
			return m.Waiting()+b.Waiting()+e.Waiting() == 3
		}, "all three guards armed")
		fire[want]()
		if got := <-res; got != want {
			t.Fatalf("winner = %d, want %d", got, want)
		}
		for i, mech := range mechs {
			testutil.WaitFor(t, 5*time.Second, 0, func() bool { return mech.Waiting() == 0 },
				"mechanism %d drained", i)
		}
	}
}

// TestSelectClaimVsFalsify: a thief races the selector for every token,
// so claims are falsified between notification and re-entry; the handle
// must transparently re-arm and the selector must still consume exactly
// its share, with no lost wake-up and no leak. Run under -race.
func TestSelectClaimVsFalsify(t *testing.T) {
	m := New()
	x := m.NewInt("x", 0)
	g := m.MustCompile("x > 0").When()

	const tokens = 300
	var bySelect, byThief int64
	done := make(chan struct{})
	// A Select parked when the thief takes the last token has nothing
	// left to wake it, so the thief cancels it once every token is
	// consumed; each Select's 30-s timeout only guards against a hang.
	allTaken, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The thief consumes inside plain critical sections, never waiting.
	go func() {
		defer close(done)
		for {
			stop := false
			m.Do(func() {
				if x.Get() > 0 {
					x.Add(-1)
					byThief++
				}
				stop = bySelect+byThief >= tokens
			})
			if stop {
				cancel()
				return
			}
		}
	}()
	go func() {
		for i := 0; i < tokens; i++ {
			m.Do(func() { x.Add(1) })
		}
	}()
	for {
		var quit bool
		m.Do(func() { quit = bySelect+byThief >= tokens })
		if quit {
			break
		}
		ctx, stopTimer := context.WithTimeout(allTaken, 30*time.Second)
		idx, err := SelectCtx(ctx,
			g.Then(func() { x.Add(-1); bySelect++ }),
		)
		stopTimer()
		if err != nil {
			// The thief may have consumed the last token while we parked.
			var fin bool
			m.Do(func() { fin = bySelect+byThief >= tokens })
			if fin {
				break
			}
			t.Fatalf("Select: idx=%d err=%v", idx, err)
		}
	}
	<-done
	var final int64
	m.Do(func() { final = x.Get() })
	if bySelect+byThief != tokens || final != 0 {
		t.Fatalf("consumed %d+%d of %d, x=%d", bySelect, byThief, tokens, final)
	}
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return m.Waiting() == 0 }, "no leaks")
	if s := m.Stats(); s.FutileClaims == 0 {
		t.Logf("note: no futile claim was observed this run (schedule-dependent)")
	}
}

// timeoutCtx returns a context that fails the test if it expires.
func timeoutCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestSelectLoserCancelVsRelay: the losing guard's monitor has a relay
// signal in flight to the armed handle when the Select cancels it; the
// cancellation must pass the signal on to the blocking waiter parked on
// the same predicate — relay invariance across guard teardown. Run many
// rounds so the in-flight window is actually hit. Run under -race.
func TestSelectLoserCancelVsRelay(t *testing.T) {
	const rounds = 200
	for r := 0; r < rounds; r++ {
		ma, mb := New(), New()
		xa, xb := ma.NewInt("x", 0), mb.NewInt("x", 0)
		ga := ma.MustCompile("x > 0").When()
		gb := mb.MustCompile("x > 0").When()

		// A blocking waiter on B's predicate, behind the Select's guard.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			mb.Enter()
			if err := mb.Await("x > 0"); err != nil {
				panic(err)
			}
			xb.Add(-1)
			mb.Exit()
		}()

		res := make(chan int, 1)
		go func() {
			idx, err := Select(
				ga.Then(func() { xa.Add(-1) }),
				gb.Then(func() {}), // does not consume: the blocked waiter must still win the token
			)
			if err != nil {
				t.Error(err)
			}
			res <- idx
		}()
		testutil.WaitFor(t, 10*time.Second, 0,
			func() bool { return ma.Waiting() == 1 && mb.Waiting() == 2 },
			"guards and blocking waiter parked (round %d)", r)

		// Fire both sides as close together as possible: B's relay may be
		// in flight to the armed handle exactly when A wins and the Select
		// cancels it.
		var fire sync.WaitGroup
		fire.Add(2)
		go func() { defer fire.Done(); mb.Do(func() { xb.Add(1) }) }()
		go func() { defer fire.Done(); ma.Do(func() { xa.Add(1) }) }()
		fire.Wait()
		<-res

		// Whoever won, the blocking waiter on B must eventually get its
		// token: either the Select won B (body consumed nothing) or the
		// cancellation relayed the in-flight signal onward.
		wg.Wait()
		testutil.WaitFor(t, 10*time.Second, 0,
			func() bool { return ma.Waiting() == 0 && mb.Waiting() == 0 },
			"all waiters drained (round %d)", r)
		var leftB int64
		mb.Do(func() { leftB = xb.Get() })
		if leftB != 0 {
			t.Fatalf("round %d: token on B not consumed (x=%d): lost wake-up", r, leftB)
		}
	}
}

// TestSelectTwoMonitorStress: tokens land randomly on two monitors while
// one selector drains both; every token must be consumed with zero leaks.
// Run under -race.
func TestSelectTwoMonitorStress(t *testing.T) {
	const total = 2000
	ma, mb := New(), New()
	xa, xb := ma.NewInt("x", 0), mb.NewInt("x", 0)
	ga := ma.MustCompile("x > 0").When()
	gb := mb.MustCompile("x > 0").When()

	var produced int64
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for atomic.AddInt64(&produced, 1) <= total {
				if seed = seed*6364136223846793005 + 1442695040888963407; seed&1 == 0 {
					ma.Do(func() { xa.Add(1) })
				} else {
					mb.Do(func() { xb.Add(1) })
				}
			}
		}(int64(p + 1))
	}

	drained := 0
	for drained < total {
		_, err := Select(
			ga.Then(func() { xa.Add(-1); drained++ }),
			gb.Then(func() { xb.Add(-1); drained++ }),
		)
		if err != nil {
			t.Fatalf("Select: %v", err)
		}
	}
	wg.Wait()
	var la, lb int64
	ma.Do(func() { la = xa.Get() })
	mb.Do(func() { lb = xb.Get() })
	if la != 0 || lb != 0 {
		t.Fatalf("leftover tokens: a=%d b=%d", la, lb)
	}
	testutil.WaitFor(t, 5*time.Second, 0,
		func() bool { return ma.Waiting() == 0 && mb.Waiting() == 0 }, "zero leaked waiters")
}

// TestSelectDefault: with no guard ready the default body runs outside
// any monitor, nothing is armed, and nothing leaks; with a guard ready
// the guard wins and the default does not run.
func TestSelectDefault(t *testing.T) {
	m := New()
	x := m.NewInt("x", 0)
	g := m.MustCompile("x > 0").When()

	ran, dflt := false, false
	idx, err := Select(
		g.Then(func() { ran = true }),
		Default(func() { dflt = true }),
	)
	if err != nil || idx != 1 || ran || !dflt {
		t.Fatalf("empty: idx=%d err=%v ran=%v dflt=%v", idx, err, ran, dflt)
	}
	if arms := m.Stats().Arms; arms != 0 {
		t.Fatalf("Default path armed %d handles; must arm none", arms)
	}

	m.Do(func() { x.Add(1) })
	ran, dflt = false, false
	idx, err = Select(
		g.Then(func() { ran = true; x.Add(-1) }),
		Default(func() { dflt = true }),
	)
	if err != nil || idx != 0 || !ran || dflt {
		t.Fatalf("ready: idx=%d err=%v ran=%v dflt=%v", idx, err, ran, dflt)
	}
	if w := m.Waiting(); w != 0 {
		t.Fatalf("%d waiters left", w)
	}
}

// TestSelectCtxCancel: cancellation while parked returns ctx.Err() with
// index -1 and cancels every armed guard.
func TestSelectCtxCancel(t *testing.T) {
	ma, mb := New(), New()
	ma.NewInt("x", 0)
	mb.NewInt("x", 0)
	ga := ma.MustCompile("x > 0").When()
	gb := mb.MustCompile("x > 0").When()

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		idx, err := SelectCtx(ctx, ga.Then(func() {}), gb.Then(func() {}))
		if idx != -1 {
			t.Errorf("idx = %d, want -1", idx)
		}
		res <- err
	}()
	testutil.WaitFor(t, 10*time.Second, 0,
		func() bool { return ma.Waiting() == 1 && mb.Waiting() == 1 }, "guards armed")
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectCtx = %v, want context.Canceled", err)
	}
	testutil.WaitFor(t, 5*time.Second, 0,
		func() bool { return ma.Waiting() == 0 && mb.Waiting() == 0 }, "losers cancelled")

	// An already-done context wins over everything, Default included:
	// no body runs, on either shape.
	if idx, err := SelectCtx(ctx, Default(func() { t.Error("default ran") })); idx != -1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("done-ctx default-only = %d, %v", idx, err)
	}
	if idx, err := SelectCtx(ctx, ga.Then(func() { t.Error("body ran") }), Default(func() { t.Error("default ran") })); idx != -1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("done-ctx with guards = %d, %v", idx, err)
	}
}

// TestSelectOrderedPriority: when several guards are ready at the same
// decision point, SelectOrdered always picks the earliest case, while
// Select spreads wins across positions.
func TestSelectOrderedPriority(t *testing.T) {
	m := New()
	m.NewInt("x", 1) // stays 1: every guard is permanently ready
	g := m.MustCompile("x > 0").When()

	for i := 0; i < 50; i++ {
		idx, err := SelectOrdered(g.Then(func() {}), g.Then(func() {}), g.Then(func() {}))
		if err != nil || idx != 0 {
			t.Fatalf("SelectOrdered picked %d (err %v), want 0", idx, err)
		}
	}

	seen := map[int]bool{}
	for i := 0; i < 200 && len(seen) < 3; i++ {
		idx, err := Select(g.Then(func() {}), g.Then(func() {}), g.Then(func() {}))
		if err != nil {
			t.Fatal(err)
		}
		seen[idx] = true
	}
	if len(seen) < 2 {
		t.Errorf("randomized Select always picked the same case: %v", seen)
	}
	if w := m.Waiting(); w != 0 {
		t.Fatalf("%d waiters left", w)
	}
}

// TestSelectErrors: misuse and guard construction errors surface before
// anything parks, with the erring case's index.
func TestSelectErrors(t *testing.T) {
	if idx, err := Select(); idx != -1 || !errors.Is(err, ErrNoCases) {
		t.Fatalf("Select() = %d, %v", idx, err)
	}
	if idx, err := Select(Case{}); idx != 0 || !errors.Is(err, ErrNilGuard) {
		t.Fatalf("nil guard = %d, %v", idx, err)
	}
	if idx, err := Select(Default(func() {}), Default(func() {})); idx != 1 || !errors.Is(err, ErrManyDefaults) {
		t.Fatalf("two defaults = %d, %v", idx, err)
	}

	m := New()
	m.NewInt("count", 0)
	p := m.MustCompile("count >= num")
	good := m.MustCompile("count >= 0").When()
	bad := m.When(p) // missing binding
	var perr *PredicateError
	if idx, err := Select(good.Then(func() {}), bad.Then(func() {})); idx != 1 || !errors.As(err, &perr) {
		t.Fatalf("bad guard = %d, %v", idx, err)
	}
	never := m.When(m.MustCompile("num < num"), BindInt("num", 0))
	if idx, err := Select(never.Then(func() {}), good.Then(func() {})); idx != 0 || !errors.Is(err, ErrNeverTrue) {
		t.Fatalf("never-true guard = %d, %v", idx, err)
	}
	if w := m.Waiting(); w != 0 {
		t.Fatalf("error paths registered %d waiters", w)
	}

	// Default-only Select runs the default.
	ran := false
	if idx, err := Select(Default(func() { ran = true })); idx != 0 || err != nil || !ran {
		t.Fatalf("default-only = %d, %v, ran=%v", idx, err, ran)
	}
}

// TestSelectWinnerPanic: a panicking winning body must release the
// winner's monitor AND cancel every loser before the panic propagates.
func TestSelectWinnerPanic(t *testing.T) {
	ma, mb := New(), New()
	xa := ma.NewInt("x", 1)
	mb.NewInt("x", 0)
	ga := ma.MustCompile("x > 0").When()
	gb := mb.MustCompile("x > 0").When()

	recovered := func() (r any) {
		defer func() { r = recover() }()
		_, _ = Select(ga.Then(func() { panic("winner") }), gb.Then(func() {}))
		return nil
	}()
	if recovered != "winner" {
		t.Fatalf("panic = %v, want to propagate", recovered)
	}
	testutil.WaitFor(t, 5*time.Second, 0,
		func() bool { return ma.Waiting() == 0 && mb.Waiting() == 0 },
		"losers cancelled after winner panic")
	// Both monitors must be usable.
	ma.Do(func() { xa.Add(-1) })
	mb.Do(func() {})
}

// TestSelectGuardReuseConcurrent: two selectors share the same guards;
// every token is claimed by exactly one of them. Run under -race.
func TestSelectGuardReuseConcurrent(t *testing.T) {
	m := New()
	x := m.NewInt("x", 0)
	g := m.MustCompile("x > 0").When()

	const total = 600
	var drained int64
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var quit bool
				m.Do(func() { quit = drained >= total })
				if quit {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				_, err := SelectCtx(ctx, g.Then(func() { x.Add(-1); drained++ }))
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		m.Do(func() { x.Add(1) })
	}
	wg.Wait()
	var left, got int64
	m.Do(func() { left = x.Get(); got = drained })
	if got != total || left != 0 {
		t.Fatalf("drained %d of %d, left %d", got, total, left)
	}
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return m.Waiting() == 0 }, "no leaks")
}
