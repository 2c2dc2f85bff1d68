package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	autosynch "repro"
	"repro/internal/stats"
)

// cold-relay keeps coldWaiters goroutines parked on distinct predicates
// that never become true, beside coldStatic idle static groups, and drives
// one goroutine through a predicate that always holds. Every Exit then
// runs a relay search that walks every group and finds nothing, and
// nothing parks or wakes while the window runs.
const (
	coldWaiters = 512
	coldStatic  = 2048
)

type coldRelay struct {
	*loop
	m        *autosynch.Monitor
	hot      *autosynch.IntCell
	stopCell *autosynch.BoolCell
	hotPred  *autosynch.Predicate
	waiters  sync.WaitGroup
	released atomic.Int64
	wakeups0 uint64 // Stats().Wakeups once every waiter parked
}

func setupColdRelay(e *env) (instance, error) {
	c := &coldRelay{loop: newLoop(e, 1, 1), m: autosynch.New()}
	c.hot = c.m.NewInt("hot", 0)
	c.m.NewInt("cap", 1<<62)
	c.stopCell = c.m.NewBool("stop", false)
	for i := 0; i < coldWaiters; i++ {
		c.m.NewInt(fmt.Sprintf("s%d", i), 0)
	}
	for j := 0; j < coldStatic; j++ {
		c.m.NewInt(fmt.Sprintf("t%d", j), 0)
	}
	var err error
	if c.hotPred, err = e.compile(c.m, "hot + k <= cap || stop"); err != nil {
		return nil, err
	}
	// A static predicate keeps its group registered after its only
	// waiter cancels, so each of these stays an idle group the relay
	// search must step over.
	for j := 0; j < coldStatic; j++ {
		p, err := e.compile(c.m, fmt.Sprintf("t%d >= 1", j))
		if err != nil {
			return nil, err
		}
		w := p.Arm()
		if err := w.Err(); err != nil {
			return nil, fmt.Errorf("arm %s: %w", p.Src(), err)
		}
		w.Cancel()
	}
	preds := make([]*autosynch.Predicate, coldWaiters)
	for i := range preds {
		if preds[i], err = e.compile(c.m, fmt.Sprintf("s%d == 1 || stop", i)); err != nil {
			return nil, err
		}
	}
	c.waiters.Add(coldWaiters)
	for _, p := range preds {
		go c.park(p)
	}
	for c.m.Waiting()+int(c.released.Load()) < coldWaiters {
		runtime.Gosched()
	}
	if n := c.released.Load(); n > 0 {
		return nil, fmt.Errorf("%d cold waiters returned before teardown", n)
	}
	c.wakeups0 = c.m.Stats().Wakeups
	go c.drive(e.rand(0))
	return c, nil
}

func (c *coldRelay) park(p *autosynch.Predicate) {
	defer c.waiters.Done()
	c.m.Enter()
	if err := c.m.AwaitPred(p); err != nil {
		c.failed.Add(1)
	}
	c.m.Exit()
	c.released.Add(1)
}

func (c *coldRelay) drive(r *rand.Rand) {
	defer c.workers.Done()
	for i := 0; c.gate.pass(); i++ {
		k := batch(r)
		op := c.begin(i)
		c.m.Enter()
		op.mark(kEnter)
		if err := c.m.AwaitPred(c.hotPred, autosynch.Bind("k", k)); err != nil {
			c.failed.Add(1)
		}
		op.mark(kAwait)
		c.hot.Add(1)
		op.skip()
		c.m.Exit()
		op.mark(kExit)
		op.end()
		c.ops.Add(1)
	}
}

func (c *coldRelay) counts() counts {
	return counts{ops: c.ops.Load(), issued: c.ops.Load(), failed: c.failed.Load(), core: c.m.Stats()}
}

func (c *coldRelay) stop(ck *checker) {
	c.halt()
	w := c.m.Stats().Wakeups - c.wakeups0
	ck.expect(w == 0, "cold-relay: %d wake-ups while the load ran", w)
}

func (c *coldRelay) wakeToClaim() *stats.Histogram { return orEmpty(c.m.WaitLatency()) }

// close sets stop, which makes every parked predicate true; the waiters
// then leave one after another, each relaying to the next.
func (c *coldRelay) close(ck *checker) {
	c.m.Do(func() { c.stopCell.Set(true) })
	done := make(chan struct{})
	go func() {
		c.waiters.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(settleTimeout):
	}
	n := c.released.Load()
	ck.expect(n == coldWaiters, "cold-relay: %d of %d waiters released at teardown", n, coldWaiters)
	ck.expect(c.m.Waiting() == 0, "cold-relay: %d waiters left after teardown", c.m.Waiting())
}
