package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/problems"
)

// TestWakePolicyTraceAccountsPolicyWakes is the flight-recorder
// acceptance check: a traced wake-policy storm must produce a ring whose
// reconstructed wake chains account for every policy-picked wake the
// monitor's own counters saw. The recorder is process-global, so this
// test must not run in parallel with tests that build monitors.
func TestWakePolicyTraceAccountsPolicyWakes(t *testing.T) {
	if testing.Short() {
		t.Skip("storm points are not short")
	}
	rec := obs.Start(1 << 17)
	defer obs.Stop()
	res := wakePolicyPoint(policy.FIFO, 16, 4000)
	obs.Stop()

	if res.Check != 0 {
		t.Fatalf("storm lost grants: check = %d", res.Check)
	}
	// The accounting below is exact only if the ring kept everything:
	// no slot-contention drops and no wrap-around overwrites.
	if d := rec.Drops(); d != 0 {
		t.Fatalf("ring dropped %d events; size the ring to the storm", d)
	}
	for _, r := range rec.Rings() {
		if r.Writes() > uint64(r.Cap()) {
			t.Fatalf("ring %q wrapped (%d writes into %d slots); size the ring to the storm",
				r.Label(), r.Writes(), r.Cap())
		}
	}

	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("traced storm recorded no events")
	}
	an := obs.Analyze(events, rec.Drops())
	if res.Stats.PolicyWakes == 0 {
		t.Fatal("storm recorded no policy-picked wakes")
	}
	if uint64(an.PolicyWakes) != res.Stats.PolicyWakes {
		t.Errorf("trace accounts %d policy wakes, monitor counted %d",
			an.PolicyWakes, res.Stats.PolicyWakes)
	}
	if an.Chains == 0 || an.Claimed == 0 {
		t.Errorf("analysis reconstructed no closed chains: %+v", an)
	}
	if an.Signals < an.PolicyWakes {
		t.Errorf("fewer signals (%d) than policy wakes (%d)", an.Signals, an.PolicyWakes)
	}
}

// TestTable1FromSpans checks that Table 1 reads its phases from recorder
// spans. At tiny ops every row has await and lock time from a lossless
// window; both automatic rows have relay and tag time; the explicit row,
// which has no condition manager, has neither. The recorder is
// process-global, so this test must not run in parallel with tests that
// build monitors.
func TestTable1FromSpans(t *testing.T) {
	if obs.Active() != nil {
		t.Fatal("recorder unexpectedly active")
	}
	rep := Table1(tiny())
	if obs.Active() != nil {
		t.Error("Table1 left its recorder running")
	}
	rows := make(map[string][]string)
	for _, line := range strings.Split(rep.Text, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = f
		}
	}
	for _, mech := range []problems.Mechanism{problems.Explicit, problems.AutoSynchT, problems.AutoSynch} {
		f := rows[mech.String()]
		if len(f) != 8 {
			t.Fatalf("no %s row of 8 columns:\n%s", mech, rep.Text)
		}
		var phase [4]time.Duration // await, lock, relay, tag
		for i := range phase {
			d, err := time.ParseDuration(f[1+i])
			if err != nil {
				t.Fatalf("%s: column %d: %v", mech, 1+i, err)
			}
			phase[i] = d
		}
		if f[6] != "0" || f[7] != "false" {
			t.Errorf("%s: lossy window: drops=%s wrapped=%s", mech, f[6], f[7])
		}
		if phase[0] <= 0 || phase[1] <= 0 {
			t.Errorf("%s: await=%v lock=%v, want both > 0", mech, phase[0], phase[1])
		}
		automatic := mech != problems.Explicit
		if automatic != (phase[2] > 0) || automatic != (phase[3] > 0) {
			t.Errorf("%s: relay=%v tag=%v, want both > 0 on automatic rows and 0 on explicit",
				mech, phase[2], phase[3])
		}
	}
}
