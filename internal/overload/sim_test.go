package overload

import (
	"fmt"
	"math"
	"testing"
)

// TestUnprotectedMetastableCollapse pins the failure mode the protection
// stack exists for: a 4× load spike ends, but the unprotected stack's
// goodput does not come back — timed-out clients' feral retries keep the
// server saturated with work nobody is waiting for, and the collapse
// sustains itself on baseline load alone.
func TestUnprotectedMetastableCollapse(t *testing.T) {
	m := Run(Config{Seed: 42, Protected: false})
	if m.PeakGoodput <= 0 {
		t.Fatalf("no healthy baseline established: peak=%v", m.PeakGoodput)
	}
	// The spike is long over by the final window, yet goodput stays below
	// half of the healthy baseline: the definition of metastable collapse.
	if m.FinalGoodput >= 0.5*m.PeakGoodput {
		t.Errorf("expected sustained collapse after the spike: final=%.3f peak=%.3f",
			m.FinalGoodput, m.PeakGoodput)
	}
	// The collapse is driven by retry amplification: attempts dwarf offered
	// load once every timeout feeds back into the arrival stream.
	if amp := m.Amplification(); amp <= 2 {
		t.Errorf("expected a retry storm (amplification > 2), got %.2f", amp)
	}
	// The server was busy the whole time — on wasted work. That is what
	// distinguishes congestion collapse from simple underprovisioning.
	if m.Wasted == 0 {
		t.Error("expected wasted service (completions after client timeout)")
	}
}

// TestProtectedRidesThroughSpike pins the claim for the protection stack:
// bounded admission queues shed the un-serveable excess cheaply, budgeted
// full-jitter retries stop the feedback loop, and goodput holds through the
// spike and recovers fully after it.
func TestProtectedRidesThroughSpike(t *testing.T) {
	m := Run(Config{Seed: 42, Protected: true})
	if m.PeakGoodput <= 0 {
		t.Fatalf("no healthy baseline established: peak=%v", m.PeakGoodput)
	}
	if m.SpikeGoodput < 0.7*m.PeakGoodput {
		t.Errorf("goodput sagged during the spike: spike=%.3f peak=%.3f",
			m.SpikeGoodput, m.PeakGoodput)
	}
	if m.FinalGoodput < 0.95*m.PeakGoodput {
		t.Errorf("goodput did not recover after the spike: final=%.3f peak=%.3f",
			m.FinalGoodput, m.PeakGoodput)
	}
	// The retry budget's contract: with ratio 1.0, total attempts can never
	// exceed twice the offered load, no matter the shed rate.
	if amp := m.Amplification(); amp > 2 {
		t.Errorf("retry budget failed to cap amplification: %.2f", amp)
	}
	// Admission control did real work (the spike exceeded capacity), and it
	// kept the server off doomed requests entirely.
	if m.Sheds == 0 {
		t.Error("expected admission sheds during the spike")
	}
	if m.Wasted != 0 {
		t.Errorf("protected server wasted service on %d dead requests", m.Wasted)
	}
}

// TestProtectionImprovesOutcome compares the two modes on identical offered
// load: protection must convert a losing configuration into a winning one,
// not merely shuffle failure categories.
func TestProtectionImprovesOutcome(t *testing.T) {
	off := Run(Config{Seed: 7, Protected: false})
	on := Run(Config{Seed: 7, Protected: true})
	if on.Completed <= off.Completed {
		t.Errorf("protection should complete more requests in-deadline: on=%d off=%d",
			on.Completed, off.Completed)
	}
	if on.FinalGoodput <= off.FinalGoodput {
		t.Errorf("protection should recover post-spike goodput: on=%.3f off=%.3f",
			on.FinalGoodput, off.FinalGoodput)
	}
}

// TestDeterministic pins reproducibility: the same seed yields bit-identical
// metrics, which is what lets CI assert on this simulation at all.
func TestDeterministic(t *testing.T) {
	for _, prot := range []bool{false, true} {
		a := Run(Config{Seed: 99, Protected: prot})
		b := Run(Config{Seed: 99, Protected: prot})
		if a.Completed != b.Completed || a.Retries != b.Retries ||
			a.Sheds != b.Sheds || a.Timeouts != b.Timeouts || a.GaveUp != b.GaveUp {
			t.Fatalf("protected=%v: runs diverged: %+v vs %+v", prot, a, b)
		}
		if len(a.Buckets) != len(b.Buckets) {
			t.Fatalf("bucket counts diverged")
		}
		for i := range a.Buckets {
			if math.Abs(a.Buckets[i]-b.Buckets[i]) > 0 {
				t.Fatalf("protected=%v: bucket %d diverged: %v vs %v", prot, i, a.Buckets[i], b.Buckets[i])
			}
		}
	}
}

// TestDocumentedFigures pins the numbers DESIGN.md and EXPERIMENTS.md quote
// from `feralbench -experiment overload` at its default seed: the spike
// timeline's summary for each mode and the steady-state goodput sweep.
// Figures are compared as the rendered, rounded strings the docs print.
func TestDocumentedFigures(t *testing.T) {
	const seed = 2015
	feral := Run(Config{Seed: seed, Protected: false})
	prot := Run(Config{Seed: seed, Protected: true})
	for _, c := range []struct{ name, got, want string }{
		{"feral final goodput", fmt.Sprintf("%.2f", feral.FinalGoodput), "0.00"},
		{"feral amplification", fmt.Sprintf("%.2f", feral.Amplification()), "13.70"},
		{"feral wasted", fmt.Sprint(feral.Wasted), "2269"},
		{"protected spike goodput", fmt.Sprintf("%.2f", prot.SpikeGoodput), "0.80"},
		{"protected final goodput", fmt.Sprintf("%.2f", prot.FinalGoodput), "0.50"},
		{"protected amplification", fmt.Sprintf("%.2f", prot.Amplification()), "1.36"},
		{"protected sheds", fmt.Sprint(prot.Sheds), "1577"},
		{"protected wasted", fmt.Sprint(prot.Wasted), "0"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}

	// The steady-state sweep: offered load held at f × capacity (0.8 per
	// tick) for the whole run, goodput read after the would-be spike.
	want := map[bool][]string{
		false: {"0.400", "0.600", "0.800", "0.000", "0.000", "0.000"},
		true:  {"0.400", "0.600", "0.800", "0.800", "0.800", "0.800"},
	}
	for i, f := range []float64{0.5, 0.75, 1.0, 1.5, 2.0, 3.0} {
		for _, protected := range []bool{false, true} {
			m := Run(Config{Seed: seed, BaseRate: f * 0.8, SpikeFactor: 1, Protected: protected})
			if got := fmt.Sprintf("%.3f", m.FinalGoodput); got != want[protected][i] {
				t.Errorf("offered/cap %.2f protected=%v: goodput %s, want %s", f, protected, got, want[protected][i])
			}
		}
	}
}
