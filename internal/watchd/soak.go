package watchd

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"
)

// SoakConfig shapes a duration-based soak run: hold Sessions standing
// watches while churners replace sessions and publishers bump versions,
// then drain and verify nothing leaked.
type SoakConfig struct {
	Daemon Config

	Sessions int           // standing session population; default 1000
	Duration time.Duration // measurement interval after fill; default 1s

	Churners   int           // session-replacement generators; default 2
	ChurnEvery time.Duration // per-churner replacement pacing; default 1ms

	Publishers   int           // version-bump generators; default 2
	PublishEvery time.Duration // per-publisher pacing; default 200µs

	Seed int64 // publisher key-choice seed; 0 means a fixed default

	// OnDaemon, when non-nil, receives the daemon right after construction
	// and before the fill, so callers can register live gauges (cmd/watchd
	// -metrics-addr) or otherwise observe it while the soak runs. The
	// daemon is closed by the time Soak returns.
	OnDaemon func(*Daemon)
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Sessions <= 0 {
		c.Sessions = 1000
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Churners <= 0 {
		c.Churners = 2
	}
	if c.ChurnEvery <= 0 {
		c.ChurnEvery = time.Millisecond
	}
	if c.Publishers <= 0 {
		c.Publishers = 2
	}
	if c.PublishEvery <= 0 {
		c.PublishEvery = 200 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SoakResult is what a soak run measured. Latency is the merged
// wake-to-claim histogram; SustainedMin/Max bracket the live session
// count observed during the measurement interval, proving the population
// was actually held, not just reached.
type SoakResult struct {
	Sessions int           `json:"sessions"`
	Duration time.Duration `json:"duration_ns"`

	SustainedMin int64 `json:"sustained_min"`
	SustainedMax int64 `json:"sustained_max"`

	Published uint64 `json:"published"`
	Churned   uint64 `json:"churned"` // sessions the churners replaced, expired ones included

	Stats Stats `json:"stats"`

	LeakedGoroutines int `json:"leaked_goroutines"`
	ResidualWaiters  int `json:"residual_waiters"`
}

// Soak runs the configured scenario: build a daemon whose deliveries
// auto-renew (every event immediately re-arms, so the population stays
// standing), fill it to Sessions, run churners and publishers for
// Duration, then drain and check for leaked goroutines and residual
// waiters. A non-nil error reports a failed invariant — a drain leak, a
// goroutine leak, or a population that could not be sustained.
func Soak(cfg SoakConfig) (SoakResult, error) {
	cfg = cfg.withDefaults()
	res := SoakResult{Sessions: cfg.Sessions, Duration: cfg.Duration}

	baseline := runtime.NumGoroutine()

	dcfg := cfg.Daemon
	dcfg.OnEvent = func(ev Event) { ev.Session.Renew() }
	if dcfg.MaxSessions <= 0 {
		// Leave admission headroom above the standing population so the
		// churners' register-then-cancel ordering does not starve; tight
		// limits can be configured explicitly to exercise rejection.
		dcfg.MaxSessions = cfg.Sessions + cfg.Sessions/8 + 16
	}
	d := New(dcfg)
	if cfg.OnDaemon != nil {
		cfg.OnDaemon(d)
	}

	sessions := make([]*Session, cfg.Sessions)
	for i := range sessions {
		s, err := d.Register(uint64(i % d.NumKeys()))
		if err != nil {
			d.Close()
			return res, fmt.Errorf("soak fill at %d/%d: %w", i, cfg.Sessions, err)
		}
		sessions[i] = s
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	workers := 0
	var churned atomic.Uint64

	// Churners replace sessions in their own partition: register the
	// successor first (briefly overshooting the population, exercising the
	// admission gate), fall back to cancel-first when rejected. Before
	// each replacement a churner re-registers every session of its
	// partition that expired since it last looked, so an idle deadline
	// thins the population only by what expires between two of its
	// ticks, however rarely the churners get to run.
	per := (len(sessions) + cfg.Churners - 1) / cfg.Churners
	for c := 0; c < cfg.Churners; c++ {
		lo := c * per
		hi := lo + per
		if hi > len(sessions) {
			hi = len(sessions)
		}
		if lo >= hi {
			break
		}
		workers++
		go func(part []*Session, seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			tick := time.NewTicker(cfg.ChurnEvery)
			defer tick.Stop()
			var seen uint64 // d.expired at the last look
			missed := false // a re-registration was rejected; look again
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if n := d.expired.Load(); n != seen || missed {
					seen, missed = n, false
					for i, s := range part {
						if !errors.Is(s.Err(), ErrExpired) {
							continue
						}
						next, err := d.Register(uint64(rng.Intn(d.NumKeys())))
						if err != nil {
							missed = true
							continue
						}
						part[i] = next
						churned.Add(1)
					}
				}
				i := rng.Intn(len(part))
				key := uint64(rng.Intn(d.NumKeys()))
				next, err := d.Register(key)
				if err != nil {
					// At the admission limit: free the slot first, retry.
					part[i].Cancel()
					next, err = d.Register(key)
					if err != nil {
						continue // rejected again (racing churners); skip
					}
				} else {
					part[i].Cancel()
				}
				part[i] = next
				churned.Add(1)
			}
		}(sessions[lo:hi], cfg.Seed+int64(c)+1)
	}

	// Publishers bump random keys.
	publishCounts := make([]uint64, cfg.Publishers)
	for p := 0; p < cfg.Publishers; p++ {
		workers++
		go func(p int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(p)))
			tick := time.NewTicker(cfg.PublishEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if _, err := d.Publish(uint64(rng.Intn(d.NumKeys()))); err == nil {
					publishCounts[p]++
				}
			}
		}(p)
	}

	// Sampler tracks the sustained population during the interval.
	res.SustainedMin, res.SustainedMax = d.ActiveSessions(), d.ActiveSessions()
	workers++
	go func() {
		defer func() { done <- struct{}{} }()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			n := d.ActiveSessions()
			if n < res.SustainedMin {
				res.SustainedMin = n
			}
			if n > res.SustainedMax {
				res.SustainedMax = n
			}
		}
	}()

	time.Sleep(cfg.Duration)
	close(stop)
	for i := 0; i < workers; i++ {
		<-done
	}
	for _, p := range publishCounts {
		res.Published += p
	}
	res.Churned = churned.Load()

	closeErr := d.Close()
	res.Stats = d.Stats()
	res.ResidualWaiters = res.Stats.Waiting

	// The generators are gone and Close drained the dispatchers; the
	// goroutine count should be back at the baseline. Poll briefly — the
	// runtime reaps exiting goroutines asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine() - baseline; n <= 0 {
			res.LeakedGoroutines = 0
			break
		} else if time.Now().After(deadline) {
			res.LeakedGoroutines = n
			break
		}
		time.Sleep(time.Millisecond)
	}

	switch {
	case closeErr != nil:
		return res, fmt.Errorf("soak drain: %w", closeErr)
	case res.LeakedGoroutines > 0:
		return res, fmt.Errorf("soak leaked %d goroutines", res.LeakedGoroutines)
	case res.ResidualWaiters > 0:
		return res, fmt.Errorf("soak left %d residual waiters", res.ResidualWaiters)
	case res.SustainedMin < int64(cfg.Sessions)/2:
		return res, fmt.Errorf("population collapsed: sustained minimum %d of %d sessions",
			res.SustainedMin, cfg.Sessions)
	}
	return res, nil
}
