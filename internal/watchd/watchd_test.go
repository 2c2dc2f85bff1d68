package watchd

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testutil"
)

// smallConfig keeps unit-test daemons tiny and deterministic.
func smallConfig() Config {
	return Config{Keys: 16, Shards: 4, Dispatchers: 2, MaxSessions: 1 << 10}
}

// mustClose closes the daemon and fails the test on any drain leak.
func mustClose(t *testing.T, d *Daemon) {
	t.Helper()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// recvEvent receives one event with a deadline.
func recvEvent(t *testing.T, s *Session) Event {
	t.Helper()
	select {
	case ev, ok := <-s.Events():
		if !ok {
			t.Fatalf("events channel closed early; session err = %v", s.Err())
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatalf("no event within deadline; session err = %v", s.Err())
	}
	panic("unreachable")
}

// TestRegisterPublishDeliver is the basic lifecycle: register, publish,
// receive the event with the published version and a recorded latency,
// renew, receive again.
func TestRegisterPublishDeliver(t *testing.T) {
	d := New(smallConfig())
	defer testutil.NoLeaks(t, d)()
	defer mustClose(t, d)

	s, err := d.Register(3)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if s.Key() != 3 || s.Seen() != 0 {
		t.Fatalf("fresh session: key=%d seen=%d", s.Key(), s.Seen())
	}
	if v, err := d.Publish(3); err != nil || v != 1 {
		t.Fatalf("Publish = %d, %v", v, err)
	}
	ev := recvEvent(t, s)
	if ev.Key != 3 || ev.Version != 1 {
		t.Fatalf("event = key %d version %d, want key 3 version 1", ev.Key, ev.Version)
	}
	if s.Seen() != 1 {
		t.Fatalf("Seen after delivery = %d", s.Seen())
	}

	// A second publish before Renew must not deliver (the session is in
	// the delivered state); Renew re-arms against seen+1 and the already
	// published version satisfies it immediately.
	if _, err := d.Publish(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Renew(); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	ev = recvEvent(t, s)
	if ev.Version != 2 {
		t.Fatalf("renewed event version = %d, want 2", ev.Version)
	}

	st := d.Stats()
	if st.Delivered != 2 || st.Registered != 1 || st.Renewed != 1 {
		t.Fatalf("stats = %v", st)
	}
	if st.WakeToClaim.Count() != 2 {
		t.Fatalf("latency histogram count = %d, want 2", st.WakeToClaim.Count())
	}
	if st.WakeToClaim.P50() <= 0 {
		t.Fatalf("p50 wake-to-claim = %v, want > 0", st.WakeToClaim.P50())
	}
	s.Cancel()
	if !errors.Is(s.Err(), ErrCancelled) {
		t.Fatalf("Err after cancel = %v", s.Err())
	}
	if _, ok := <-s.Events(); ok {
		t.Fatal("events channel still open after cancel")
	}
}

// TestRenewKeepsHandle: a session keeps one armed handle for its life.
// Across publish, delivery and renewal cycles each session's handle stays
// the same pointer, every delivery arrives with the published version,
// and Close drains with no waiter left.
func TestRenewKeepsHandle(t *testing.T) {
	const sessions, cycles = 4, 5
	d := New(smallConfig())
	defer testutil.NoLeaks(t, d)()
	handle := func(s *Session) *core.Wait {
		s.dp.mu.Lock()
		defer s.dp.mu.Unlock()
		return s.w
	}
	var ss []*Session
	var ws []*core.Wait
	for range sessions {
		s, err := d.Register(5)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		ss = append(ss, s)
		ws = append(ws, handle(s))
	}
	for c := 1; c <= cycles; c++ {
		v, err := d.Publish(5)
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
		for i, s := range ss {
			if ev := recvEvent(t, s); ev.Version != v {
				t.Fatalf("cycle %d: session %d got version %d, want %d", c, i, ev.Version, v)
			}
			if err := s.Renew(); err != nil {
				t.Fatalf("Renew: %v", err)
			}
			if w := handle(s); w != ws[i] {
				t.Fatalf("cycle %d: session %d renewed onto another handle", c, i)
			}
		}
		if got := d.Waiting(); got != sessions {
			t.Fatalf("cycle %d: Waiting() = %d after the renewals, want %d", c, got, sessions)
		}
	}
	st := d.Stats()
	if st.Delivered != sessions*cycles || st.Renewed != sessions*cycles || st.Coalesced != 0 {
		t.Fatalf("stats = %v, want %d deliveries and renewals, none coalesced", st, sessions*cycles)
	}
	mustClose(t, d)
}

// TestPublishWakesOnlyReachedThresholds: sessions watching different keys
// are independent, and a key's publish wakes exactly its watchers.
func TestPublishWakesOnlyReachedThresholds(t *testing.T) {
	d := New(smallConfig())
	defer testutil.NoLeaks(t, d)()
	defer mustClose(t, d)

	a, err := d.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Publish(1); err != nil {
		t.Fatal(err)
	}
	if ev := recvEvent(t, a); ev.Key != 1 {
		t.Fatalf("watcher of key 1 got key %d", ev.Key)
	}
	select {
	case ev := <-b.Events():
		t.Fatalf("watcher of key 2 woke on publish of key 1: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
	a.Cancel()
	b.Cancel()
}

// TestAdmissionControl: MaxSessions rejections are graceful and counted,
// and cancelling frees capacity.
func TestAdmissionControl(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxSessions = 4
	d := New(cfg)
	defer testutil.NoLeaks(t, d)()
	defer mustClose(t, d)

	var held []*Session
	for i := 0; i < 4; i++ {
		s, err := d.Register(uint64(i % cfg.Keys))
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		held = append(held, s)
	}
	if _, err := d.Register(0); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("over-limit Register = %v, want ErrSessionLimit", err)
	}
	if st := d.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	held[0].Cancel()
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return d.ActiveSessions() == 3 },
		"capacity freed after cancel")
	if _, err := d.Register(5); err != nil {
		t.Fatalf("Register after freeing capacity: %v", err)
	}
	if _, err := d.Register(uint64(cfg.Keys)); !errors.Is(err, ErrBadKey) {
		t.Fatalf("out-of-range key = %v, want ErrBadKey", err)
	}
	if _, err := d.Publish(uint64(cfg.Keys)); !errors.Is(err, ErrBadKey) {
		t.Fatalf("out-of-range publish = %v, want ErrBadKey", err)
	}
}

// TestEviction: with MaxIdle below the session count, registration
// pressure evicts the least-recently-active sessions, which observe
// ErrEvicted; recently touched sessions survive.
func TestEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxIdle = 4
	d := New(cfg)
	defer testutil.NoLeaks(t, d)()
	defer mustClose(t, d)

	first, err := d.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	var rest []*Session
	for i := 1; i < 8; i++ {
		// Touch the oldest survivor each round so the LRU order is
		// exercised, not just insertion order.
		s, err := d.Register(uint64(i))
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		rest = append(rest, s)
	}
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return d.ArmedSessions() <= int64(cfg.MaxIdle) },
		"armed population under MaxIdle")
	st := d.Stats()
	if st.Evicted < 1 {
		t.Fatalf("evicted = %d, want >= 1", st.Evicted)
	}
	// The first registration is the coldest session; it must be among the
	// evicted.
	if !errors.Is(first.Err(), ErrEvicted) {
		t.Fatalf("oldest session err = %v, want ErrEvicted", first.Err())
	}
	// Renew on an evicted session reports the eviction; live sessions
	// accept the keep-alive.
	if err := first.Renew(); !errors.Is(err, ErrEvicted) {
		t.Fatalf("Renew on evicted = %v", err)
	}
	live := 0
	for _, s := range rest {
		if s.Err() == nil {
			if err := s.Renew(); err != nil {
				t.Fatalf("keep-alive Renew: %v", err)
			}
			live++
		}
	}
	if live == 0 {
		t.Fatal("every session evicted; expected the recent ones to survive")
	}
}

// TestOnEventCallbackAndRenewLoop drives the callback delivery mode with
// an auto-renewing consumer — the soak harness configuration — through a
// few hundred publishes on one key.
func TestOnEventCallbackAndRenewLoop(t *testing.T) {
	const rounds = 200
	var mu sync.Mutex
	var got []int64
	done := make(chan struct{})
	cfg := smallConfig()
	cfg.OnEvent = func(ev Event) {
		mu.Lock()
		got = append(got, ev.Version)
		n := len(got)
		mu.Unlock()
		if n >= rounds {
			close(done)
			return
		}
		if err := ev.Session.Renew(); err != nil {
			t.Errorf("renew in callback: %v", err)
		}
	}
	d := New(cfg)
	defer testutil.NoLeaks(t, d)()
	defer mustClose(t, d)

	if _, err := d.Register(7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if _, err := d.Publish(7); err != nil {
			t.Fatal(err)
		}
		// Publishing faster than the consumer renews coalesces into the
		// next delivery; pace on the observed count to make every version
		// land.
		testutil.WaitFor(t, 5*time.Second, 0, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) > i
		}, "delivery %d", i)
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("delivery %d saw version %d; sequence %v...", i, v, got[:i+1])
		}
	}
	if st := d.Stats(); st.WakeToClaim.Count() != rounds {
		t.Fatalf("histogram count = %d, want %d", st.WakeToClaim.Count(), rounds)
	}
}

// TestCloseDrains: Close cancels every live session (they observe
// ErrClosed), refuses new registrations, drains zombies, and leaves zero
// registered waiters.
func TestCloseDrains(t *testing.T) {
	d := New(smallConfig())
	defer testutil.NoLeaks(t, d)()

	var ss []*Session
	for i := 0; i < 64; i++ {
		s, err := d.Register(uint64(i % 16))
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	// Leave a few sessions in the delivered state and a few cancelled, so
	// Close sweeps a mixed population.
	if _, err := d.Publish(0); err != nil {
		t.Fatal(err)
	}
	ss[1].Cancel()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := d.Register(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close = %v, want ErrClosed", err)
	}
	if err := ss[2].Renew(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Renew after Close = %v, want ErrClosed", err)
	}
	if !errors.Is(ss[1].Err(), ErrCancelled) {
		t.Fatalf("pre-close cancel overwritten: %v", ss[1].Err())
	}
	st := d.Stats()
	if st.Active != 0 || st.Zombies != 0 || st.Waiting != 0 {
		t.Fatalf("post-close stats: %v", st)
	}
}

// TestConcurrentChurn hammers the full surface — register, publish,
// renew, cancel — from many goroutines under the race detector, then
// verifies the drain invariants.
func TestConcurrentChurn(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxSessions = 256
	cfg.MaxIdle = 128
	d := New(cfg)
	defer testutil.NoLeaks(t, d)()

	const (
		workers = 8
		rounds  = 300
	)
	var (
		wg        sync.WaitGroup
		survivors = make([][]*Session, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []*Session
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0, 1:
					s, err := d.Register(uint64((w + i) % cfg.Keys))
					if err == nil {
						mine = append(mine, s)
					} else if !errors.Is(err, ErrSessionLimit) {
						t.Errorf("register: %v", err)
						return
					}
				case 2:
					if _, err := d.Publish(uint64((w + i) % cfg.Keys)); err != nil {
						t.Errorf("publish: %v", err)
						return
					}
					for _, s := range mine {
						s.Renew() // keep-alive or re-arm; errors are lifecycle, not bugs
					}
				case 3:
					if len(mine) > 0 {
						mine[0].Cancel()
						mine = mine[1:]
					}
				}
			}
			survivors[w] = mine
		}(w)
	}
	wg.Wait()
	// The loop can outrun the dispatchers entirely; publish once more to
	// every key and give delivery a chance to land before teardown.
	for k := 0; k < cfg.Keys; k++ {
		if _, err := d.Publish(uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return d.Stats().Delivered > 0 },
		"churn deliveries")
	for _, mine := range survivors {
		for _, s := range mine {
			s.Cancel()
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close after churn: %v", err)
	}
	if st := d.Stats(); st.Active != 0 || st.Zombies != 0 || st.Waiting != 0 {
		t.Fatalf("drain leaked: %v", st)
	}
}

// TestMechanismVariants runs the lifecycle against each monitor
// configuration the bench compares (default tagging, tagging disabled),
// since watchd is also the registry scenario's engine.
func TestMechanismVariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"autosynch", nil},
		{"autosynch-t", []core.Option{core.WithoutTagging()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.MonitorOptions = tc.opts
			d := New(cfg)
			defer testutil.NoLeaks(t, d)()
			defer mustClose(t, d)
			s, err := d.Register(2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Publish(2); err != nil {
				t.Fatal(err)
			}
			if ev := recvEvent(t, s); ev.Version != 1 {
				t.Fatalf("version = %d", ev.Version)
			}
			s.Cancel()
		})
	}
}

// TestVersionAccessor: Version tracks publishes without a session.
func TestVersionAccessor(t *testing.T) {
	d := New(smallConfig())
	defer testutil.NoLeaks(t, d)()
	defer mustClose(t, d)
	for i := int64(1); i <= 3; i++ {
		if v, err := d.Publish(9); err != nil || v != i {
			t.Fatalf("publish %d = %d, %v", i, v, err)
		}
	}
	if v, err := d.Version(9); err != nil || v != 3 {
		t.Fatalf("Version = %d, %v", v, err)
	}
	if v, err := d.Version(8); err != nil || v != 0 {
		t.Fatalf("untouched key Version = %d, %v", v, err)
	}
}

// lruLen counts the sessions on the idle LRU, and how many sessions
// think they are listed.
func lruLen(d *Daemon, ss []*Session) (listed, marked int) {
	d.lruMu.Lock()
	defer d.lruMu.Unlock()
	for e := d.lru.head; e != nil; e = e.next {
		listed++
	}
	for _, s := range ss {
		if s.lruEl != nil {
			marked++
		}
	}
	return listed, marked
}

// TestLRUKeptOnlyWhenRead: with neither MaxIdle nor IdleExpiry set,
// nothing reads the idle LRU, so no session is ever listed on it across
// register → publish → deliver → renew → cancel cycles; with either set,
// the armed sessions are listed.
func TestLRUKeptOnlyWhenRead(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  func(*Config)
		want bool
	}{
		{"off", func(*Config) {}, false},
		{"max-idle", func(c *Config) { c.MaxIdle = 1 << 10 }, true},
		{"idle-expiry", func(c *Config) { c.IdleExpiry = time.Hour }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallConfig()
			c.cfg(&cfg)
			d := New(cfg)
			defer testutil.NoLeaks(t, d)()
			check := func(what string, ss []*Session, armed int) {
				t.Helper()
				listed, marked := lruLen(d, ss)
				want := 0
				if c.want {
					want = armed
				}
				if listed != want || marked != want {
					t.Fatalf("%s: %d sessions listed, %d marked listed, want %d", what, listed, marked, want)
				}
			}
			for cycle := range 3 {
				var ss []*Session
				for k := range 4 {
					s, err := d.Register(uint64(k))
					if err != nil {
						t.Fatalf("Register: %v", err)
					}
					ss = append(ss, s)
				}
				check("registered", ss, 4)
				for k, s := range ss {
					v, err := d.Publish(uint64(k))
					if err != nil {
						t.Fatal(err)
					}
					if ev := recvEvent(t, s); ev.Version != v {
						t.Fatalf("cycle %d: delivered version %d, want %d", cycle, ev.Version, v)
					}
				}
				check("delivered", ss, 0)
				for _, s := range ss {
					if err := s.Renew(); err != nil {
						t.Fatalf("Renew: %v", err)
					}
				}
				check("renewed", ss, 4)
				for _, s := range ss {
					s.Cancel()
				}
				check("cancelled", ss, 0)
			}
			mustClose(t, d)
		})
	}
}

// TestSessionSlotReuse: a dispatcher keeps its sessions in slots indexed
// by id and reuses the id of a cancelled session only once the
// notification queued for it has drained. With the only dispatcher held
// inside OnEvent, a cancelled armed session's courtesy notification
// stays queued, and sessions registered meanwhile take other ids; once
// the dispatcher drains, the id is taken again. Every delivery owed
// arrives exactly once, and Close leaves no live session, zombie or
// waiter.
func TestSessionSlotReuse(t *testing.T) {
	hold, held := make(chan struct{}), make(chan struct{}, 1)
	var mu sync.Mutex
	got := map[*Session][]int64{}
	cfg := smallConfig()
	cfg.Dispatchers = 1
	cfg.OnEvent = func(ev Event) {
		mu.Lock()
		got[ev.Session] = append(got[ev.Session], ev.Version)
		first := len(got) == 1 && len(got[ev.Session]) == 1
		mu.Unlock()
		if first {
			held <- struct{}{}
			<-hold
		}
	}
	d := New(cfg)
	defer testutil.NoLeaks(t, d)()
	dp := d.disp[0]
	id := func(s *Session) int {
		dp.mu.Lock()
		defer dp.mu.Unlock()
		return s.id
	}
	zombies := func() int {
		dp.mu.Lock()
		defer dp.mu.Unlock()
		return dp.zombies
	}

	a, err := d.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Publish(1); err != nil {
		t.Fatal(err)
	}
	waitTimeout(t, "the dispatcher holding in OnEvent", held)
	// b is armed, so its cancel queues a courtesy notification behind the
	// held dispatcher.
	zombie := id(b)
	b.Cancel()
	if z := zombies(); z != 1 {
		t.Fatalf("zombies = %d after cancelling an armed session, want 1", z)
	}
	owed := map[*Session]int64{}
	var fresh []*Session
	for k := range 6 {
		s, err := d.Register(uint64(3 + k))
		if err != nil {
			t.Fatal(err)
		}
		if id(s) == zombie {
			t.Fatalf("session %d took the id %d of a session whose notification is still queued", k, zombie)
		}
		fresh = append(fresh, s)
		v, err := d.Publish(uint64(3 + k))
		if err != nil {
			t.Fatal(err)
		}
		owed[s] = v
	}
	close(hold)
	testutil.WaitFor(t, 5*time.Second, 0, func() bool { return zombies() == 0 }, "the zombie notification drained")
	testutil.WaitFor(t, 5*time.Second, 0, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for s := range owed {
			if len(got[s]) == 0 {
				return false
			}
		}
		return true
	}, "every owed delivery")
	next, err := d.Register(12)
	if err != nil {
		t.Fatal(err)
	}
	if id(next) != zombie {
		t.Errorf("a session registered after the drain took id %d, want the drained id %d", id(next), zombie)
	}
	owed[a] = 1
	mu.Lock()
	for s, v := range owed {
		if vs := got[s]; len(vs) != 1 || vs[0] != v {
			t.Errorf("session on key %d got versions %v, want [%d]", s.Key(), vs, v)
		}
	}
	if vs := got[b]; len(vs) != 0 {
		t.Errorf("the cancelled session got versions %v", vs)
	}
	if len(got) != len(owed) {
		t.Errorf("%d sessions got deliveries, want %d", len(got), len(owed))
	}
	mu.Unlock()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := d.Stats(); st.Active != 0 || st.Zombies != 0 || st.Waiting != 0 {
		t.Fatalf("after Close: %v, zombies %d, waiting %d", st, st.Zombies, st.Waiting)
	}
}

// waitTimeout receives from ch, failing the test if nothing arrives in
// time.
func waitTimeout(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}
