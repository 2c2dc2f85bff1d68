package problems

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
)

// Parameters of the connection pool: at most MaxOpen connections exist
// at once, and at most MaxIdle of them are parked idle — a release that
// would exceed MaxIdle closes the connection instead. AcquireTimeout is
// the deadline'd acquire's patience per attempt; an expired attempt is
// counted and retried, so the workload cannot wedge and the completed
// operation count stays deterministic.
const (
	MaxOpen        = 6
	MaxIdle        = 3
	AcquireTimeout = 2 * time.Millisecond
)

func init() {
	Register(Spec{
		Name:           "connection-pool",
		Runner:         RunConnPool,
		DefaultThreads: 16,
		CheckDesc:      "no busy connections left, idle set within max-idle",
	})
}

// RunConnPool is a bounded connection pool with a max-idle cap and a
// deadline'd acquire — the registry's exercise of the deadline wait
// path under saturation. Each client operation acquires a connection
// (reuse an idle one, or open a new one while open < cap) with
// AcquireTimeout of patience per attempt: an attempt that expires returns
// ErrDeadline still holding the monitor, is counted, and retried — the
// Mesa-style recheck after expiry is the property under test. A release
// parks the connection idle if the idle set has room and closes it
// otherwise ("max idle"). Acquire eligibility is "idle >= 1 || open <
// cap": two-sided, so the explicit version signals both on release and
// on close.
//
// threads is the number of client threads; totalOps the total number of
// successful acquire/release cycles. Ops counts completed cycles; Check
// is busy connections left (open − idle) plus any idle excess over
// MaxIdle (must be 0).
func RunConnPool(mech Mechanism, threads, totalOps int) Result {
	if threads < 1 {
		threads = 1
	}
	ops := split(totalOps, threads)
	switch mech {
	case Explicit:
		return runConnPoolExplicit(ops)
	case Baseline:
		return runConnPoolBaseline(ops)
	default:
		return runConnPoolAuto(mech, ops)
	}
}

// connPoolCheck computes the conservation value from the final idle and
// open counts: no connection may still be busy, and the idle set must
// respect the max-idle cap.
func connPoolCheck(open, idle int64) int64 {
	check := open - idle // busy connections still out
	if idle > MaxIdle {
		check += idle - MaxIdle
	}
	return check
}

func runConnPoolAuto(mech Mechanism, ops []int) Result {
	m := newAuto(mech)
	idle := m.NewInt("idle", 0)
	open := m.NewInt("open", 0)
	m.NewInt("cap", MaxOpen)
	available := m.MustCompile("idle >= 1 || open < cap")

	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for op := 0; op < n; op++ {
				m.Enter()
				for {
					err := available.AwaitDeadline(time.Now().Add(AcquireTimeout))
					if err == nil {
						break
					}
					if !errors.Is(err, core.ErrDeadline) {
						panic(err)
					}
					// Expired still holding the monitor: retry in place.
				}
				if idle.Get() >= 1 {
					idle.Add(-1)
				} else {
					open.Add(1)
				}
				m.Exit()
				// use the connection (empty: saturation test)
				m.Enter()
				if idle.Get() < MaxIdle {
					idle.Add(1)
				} else {
					open.Add(-1) // close: the idle set is full
				}
				m.Exit()
			}
		}(ops[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	var completed int64
	for _, n := range ops {
		completed += int64(n)
	}
	var fi, fo int64
	m.Do(func() { fi, fo = idle.Get(), open.Get() })
	return finish(mech, m, elapsed, completed, connPoolCheck(fo, fi))
}

func runConnPoolExplicit(ops []int) Result {
	m := core.NewExplicit()
	availCond := m.NewCond()
	var idle, open int64

	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for op := 0; op < n; op++ {
				m.Enter()
				for {
					err := availCond.AwaitDeadline(time.Now().Add(AcquireTimeout),
						func() bool { return idle >= 1 || open < MaxOpen })
					if err == nil {
						break
					}
					if !errors.Is(err, core.ErrDeadline) {
						panic(err)
					}
				}
				if idle >= 1 {
					idle--
				} else {
					open++
				}
				m.Exit()
				m.Enter()
				if idle < MaxIdle {
					idle++
				} else {
					open--
				}
				// Either path makes an acquire eligible (an idle conn, or
				// headroom under the open cap): wake an acquirer.
				availCond.Signal()
				m.Exit()
			}
		}(ops[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	var completed int64
	for _, n := range ops {
		completed += int64(n)
	}
	return finish(Explicit, m, elapsed, completed, connPoolCheck(open, idle))
}

func runConnPoolBaseline(ops []int) Result {
	m := core.NewBaseline()
	var idle, open int64

	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for op := 0; op < n; op++ {
				m.Enter()
				for {
					err := m.AwaitFuncDeadline(time.Now().Add(AcquireTimeout),
						func() bool { return idle >= 1 || open < MaxOpen })
					if err == nil {
						break
					}
					if !errors.Is(err, core.ErrDeadline) {
						panic(err)
					}
				}
				if idle >= 1 {
					idle--
				} else {
					open++
				}
				m.Exit()
				m.Enter()
				if idle < MaxIdle {
					idle++
				} else {
					open--
				}
				m.Exit()
			}
		}(ops[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	var completed int64
	for _, n := range ops {
		completed += int64(n)
	}
	return finish(Baseline, m, elapsed, completed, connPoolCheck(open, idle))
}
