package problems

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

func init() {
	Register(Spec{
		Name:           "round-robin",
		Runner:         RunRoundRobin,
		DefaultThreads: 32,
		Mechs:          NoBaseline,
		CheckDesc:      "turn variable returned to zero (every round completed)",
		Figure:         "fig11",
	})
}

// RunRoundRobin is the round-robin access pattern (§6.3.2, Fig. 11):
// threads take turns entering the monitor in a fixed cyclic order. Each
// thread's waiting condition turn == id mentions its thread-local id, so
// this is the canonical complex-predicate workload: the explicit version
// keeps an array of condition variables and signals exactly the next
// thread; AutoSynch recovers the same O(1) behaviour through equivalence
// tags on the shared expression turn, while AutoSynch-T degrades to a
// linear scan — the contrast shown in Fig. 11 and Table 1.
//
// threads is the ring size; totalOps the total number of turns taken
// (rounded down to a whole number of rounds). Ops counts turns taken;
// Check is turn's final value, which is 0 when every thread completed all
// of its rounds.
func RunRoundRobin(mech Mechanism, threads, totalOps int) Result {
	rounds := totalOps / threads
	if rounds == 0 {
		rounds = 1
	}
	switch mech {
	case Explicit:
		return runRRExplicit(threads, rounds)
	case Baseline:
		return runRRBaseline(threads, rounds)
	default:
		return runRRAuto(mech, threads, rounds)
	}
}

func runRRExplicit(threads, rounds int) Result {
	m := core.NewExplicit()
	conds := make([]*core.Cond, threads)
	for i := range conds {
		conds[i] = m.NewCond()
	}
	turn := 0

	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m.Enter()
				conds[id].Await(func() bool { return turn == id })
				turn = (turn + 1) % threads
				conds[turn].Signal()
				m.Exit()
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return finish(Explicit, m, elapsed, int64(threads)*int64(rounds), int64(turn))
}

func runRRBaseline(threads, rounds int) Result {
	m := core.NewBaseline()
	turn := 0
	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m.Enter()
				m.Await(func() bool { return turn == id })
				turn = (turn + 1) % threads
				m.Exit()
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return finish(Baseline, m, elapsed, int64(threads)*int64(rounds), int64(turn))
}

func runRRAuto(mech Mechanism, threads, rounds int) Result {
	m := newAuto(mech)
	turn := m.NewInt("turn", 0)
	n := int64(threads)
	myTurn := m.MustCompile("turn == id")

	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m.Enter()
				if err := m.AwaitPred(myTurn, core.BindInt("id", id)); err != nil {
					panic(fmt.Sprintf("round-robin waiter %d: %v", id, err))
				}
				turn.Set((turn.Get() + 1) % n)
				m.Exit()
			}
		}(int64(id))
	}
	wg.Wait()
	elapsed := time.Since(start)
	var finalTurn int64
	m.Do(func() { finalTurn = turn.Get() })
	return finish(mech, m, elapsed, int64(threads)*int64(rounds), finalTurn)
}
