package autosynch_test

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkObsNoParkWait prices the flight recorder against the hottest
// path in the repo: the compiled no-park await (the workload of
// BenchmarkAwaitStringVsCompiled/compiled). The disabled arm is the
// default state — monitors built with no active recorder carry a nil
// ring, so every would-be event site is one predictable branch — and
// must be indistinguishable from the pre-recorder baseline. The enabled
// arm pays three ring writes per operation (enter, exit, and the exit's
// relay search) and bounds the cost of tracing a run:
//
//	go test -bench ObsNoParkWait -benchmem
func BenchmarkObsNoParkWait(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		if obs.Active() != nil {
			b.Fatal("recorder unexpectedly active")
		}
		benchAwaitMode(b, "compiled")
	})
	b.Run("enabled", func(b *testing.B) {
		obs.Start(obs.DefaultRingSize)
		defer obs.Stop()
		benchAwaitMode(b, "compiled")
	})
}

// TestObsDisabledNoParkGuard is the regression gate for the recorder's
// disabled path: the compiled no-park wait must stay allocation-free and
// under a ceiling that only an accidental per-event atomic, map lookup,
// or allocation would breach. The ceiling is deliberately generous —
// absolute nanoseconds on shared CI hardware are noisy — while the
// alloc assertion is exact. The enabled arm is measured alongside and
// logged, so the recorder's cost is visible in every test run without
// being load-bearing.
func TestObsDisabledNoParkGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarking is not short")
	}
	if obs.Active() != nil {
		t.Fatal("recorder unexpectedly active at test start")
	}
	disabled := testing.Benchmark(func(b *testing.B) { benchAwaitMode(b, "compiled") })
	if a := disabled.AllocsPerOp(); a != 0 {
		t.Errorf("obs-disabled no-park wait allocates %d allocs/op, want 0", a)
	}
	const ceilingNs = 2000 // seed measured ~47ns/op; anything near this is a structural regression
	if ns := disabled.NsPerOp(); ns > ceilingNs {
		t.Errorf("obs-disabled no-park wait costs %dns/op, want <= %dns/op", ns, ceilingNs)
	}

	obs.Start(obs.DefaultRingSize)
	enabled := testing.Benchmark(func(b *testing.B) { benchAwaitMode(b, "compiled") })
	obs.Stop()
	t.Logf("no-park wait: disabled %dns/op %dallocs/op, enabled %dns/op %dallocs/op",
		disabled.NsPerOp(), disabled.AllocsPerOp(), enabled.NsPerOp(), enabled.AllocsPerOp())
}
