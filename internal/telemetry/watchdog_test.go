package telemetry

import (
	"math"
	"sort"
	"testing"
	"time"

	"spatialsel/internal/obs"
)

// lcg is a tiny deterministic PRNG so the sketch tests never flake.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>11) / float64(1<<53)
}

func exactQuantile(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

func TestP2AgainstExactQuantiles(t *testing.T) {
	for _, q := range []float64{0.5, 0.9} {
		rng := lcg(42)
		sketch := newP2(q)
		var all []float64
		for i := 0; i < 5000; i++ {
			// Skewed distribution (square of uniform) — harder than uniform
			// for a marker-based sketch.
			v := rng.next()
			v *= v
			sketch.observe(v)
			all = append(all, v)
		}
		sort.Float64s(all)
		exact := exactQuantile(all, q)
		got := sketch.quantile()
		if math.Abs(got-exact) > 0.02 {
			t.Errorf("q=%g: P² %.4f vs exact %.4f (|Δ| > 0.02)", q, got, exact)
		}
	}
}

func TestP2SmallSampleExact(t *testing.T) {
	s := newP2(0.5)
	for _, v := range []float64{3, 1, 2} {
		s.observe(v)
	}
	if got := s.quantile(); got != 2 {
		t.Errorf("median of {1,2,3} = %g, want 2 (exact below 5 samples)", got)
	}
	if got := newP2(0.9).quantile(); got != 0 {
		t.Errorf("empty sketch quantile = %g, want 0", got)
	}
}

func TestPairOfCanonical(t *testing.T) {
	a, b := PairOf("roads", "lakes"), PairOf("lakes", "roads")
	if a != b {
		t.Errorf("PairOf not canonical: %v vs %v", a, b)
	}
	if a.Left != "lakes" || a.Right != "roads" {
		t.Errorf("PairOf order: %v", a)
	}
	if a.String() != "lakes⋈roads" {
		t.Errorf("String() = %q", a.String())
	}
}

func TestWatchdogDriftEdgeTrigger(t *testing.T) {
	w := NewWatchdog(DriftConfig{Threshold: 0.2, MinSamples: 10, WindowTicks: 100}, nil)
	p := PairOf("a", "b")
	for i := 0; i < 20; i++ {
		w.Observe(p, 0.5) // well past threshold
	}
	crossed := w.Evaluate()
	if len(crossed) != 1 || crossed[0].Pair != p {
		t.Fatalf("first evaluate: crossed = %v, want [%v]", crossed, p)
	}
	if crossed[0].P90 < 0.2 {
		t.Errorf("reported p90 %g below threshold", crossed[0].P90)
	}
	// Still drifting, but already flagged: no re-report.
	if again := w.Evaluate(); len(again) != 0 {
		t.Errorf("second evaluate re-reported: %v", again)
	}
	if flagged := w.Flagged(); len(flagged) != 1 || flagged[0] != p {
		t.Errorf("flagged = %v, want [%v]", flagged, p)
	}
}

func TestWatchdogMinSamplesFloor(t *testing.T) {
	w := NewWatchdog(DriftConfig{Threshold: 0.2, MinSamples: 10, WindowTicks: 100}, nil)
	for i := 0; i < 9; i++ {
		w.Observe(PairOf("a", "b"), 0.9)
	}
	if crossed := w.Evaluate(); len(crossed) != 0 {
		t.Errorf("9 samples < floor 10 still flagged: %v", crossed)
	}
}

func TestWatchdogWindowRotationRecovers(t *testing.T) {
	// WindowTicks=1: every Evaluate closes a window.
	w := NewWatchdog(DriftConfig{Threshold: 0.2, MinSamples: 5, WindowTicks: 1}, nil)
	p := PairOf("a", "b")
	for i := 0; i < 10; i++ {
		w.Observe(p, 0.8)
	}
	if crossed := w.Evaluate(); len(crossed) != 1 {
		t.Fatalf("drift not flagged: %v", crossed)
	}
	// Healthy window: estimator recovered.
	for i := 0; i < 10; i++ {
		w.Observe(p, 0.01)
	}
	if crossed := w.Evaluate(); len(crossed) != 0 {
		t.Errorf("healthy window re-flagged: %v", crossed)
	}
	if flagged := w.Flagged(); len(flagged) != 0 {
		t.Errorf("flag not cleared after healthy window: %v", flagged)
	}
	// And a relapse re-reports (edge re-armed after the unflag).
	for i := 0; i < 10; i++ {
		w.Observe(p, 0.9)
	}
	if crossed := w.Evaluate(); len(crossed) != 1 {
		t.Errorf("relapse not re-reported: %v", crossed)
	}
}

// TestWatchdogIdlePairUnflags pins stale-flag clearing: a flagged pair whose
// traffic stops (its table dropped or no longer joined) or falls below
// MinSamples is unflagged at the first window that closes without judging it,
// and a relapse re-reports.
func TestWatchdogIdlePairUnflags(t *testing.T) {
	reg := obs.NewRegistry()
	w := NewWatchdog(DriftConfig{Threshold: 0.2, MinSamples: 5, WindowTicks: 2}, reg)
	p := PairOf("a", "b")
	for i := 0; i < 10; i++ {
		w.Observe(p, 0.8)
	}
	if crossed := w.Evaluate(); len(crossed) != 1 {
		t.Fatalf("drift not flagged: %v", crossed)
	}
	for tick := 0; tick < 10; tick++ {
		w.Evaluate()
	}
	if flagged := w.Flagged(); len(flagged) != 0 {
		t.Errorf("idle pair still flagged after 10 empty ticks: %v", flagged)
	}
	if n := reg.Snapshot()["sdbd_estimate_drift_pairs"]; n != 0 {
		t.Errorf("drift pair gauge %g after the pair went idle, want 0", n)
	}
	for i := 0; i < 10; i++ {
		w.Observe(p, 0.9)
	}
	if crossed := w.Evaluate(); len(crossed) != 1 {
		t.Errorf("relapse after idle clear not re-reported: %v", crossed)
	}
	// The relapse tick also closed a window; it judged drift, so the flag
	// survived it.
	if flagged := w.Flagged(); len(flagged) != 1 {
		t.Fatalf("drifting pair unflagged by a judged window: %v", flagged)
	}
	// A trickle below MinSamples per window cannot judge the pair either:
	// the flag clears at the window close, as for an idle pair.
	for tick := 0; tick < 4; tick++ {
		w.Observe(p, 0.9)
		w.Evaluate()
	}
	if flagged := w.Flagged(); len(flagged) != 0 {
		t.Errorf("low-traffic pair still flagged: %v", flagged)
	}
}

func TestWatchdogGauges(t *testing.T) {
	reg := obs.NewRegistry()
	w := NewWatchdog(DriftConfig{Threshold: 0.2, MinSamples: 5, WindowTicks: 100}, reg)
	for i := 0; i < 10; i++ {
		w.Observe(PairOf("lakes", "roads"), 0.5)
	}
	w.Evaluate()
	snap := reg.Snapshot()
	p90 := snap[`sdbd_estimate_rel_error_p90{left="lakes",right="roads"}`]
	if math.Abs(p90-0.5) > 1e-9 {
		t.Errorf("exported p90 gauge %g, want 0.5", p90)
	}
	p50 := snap[`sdbd_estimate_rel_error_p50{left="lakes",right="roads"}`]
	if math.Abs(p50-0.5) > 1e-9 {
		t.Errorf("exported p50 gauge %g, want 0.5", p50)
	}
	if flags := snap["sdbd_estimate_drift_pairs"]; flags != 1 {
		t.Errorf("drift pair count %g, want 1", flags)
	}
}

func TestTelemetryLifecycle(t *testing.T) {
	vals := 0.0
	var drifts []Pair
	tel := New(Options{
		Snapshot: func() map[string]float64 {
			vals++
			return map[string]float64{"sdbd_v_total": vals}
		},
		Drift:   DriftConfig{Threshold: 0.2, MinSamples: 5, WindowTicks: 100},
		OnDrift: func(p Pair, p90 float64) { drifts = append(drifts, p) },
	})
	if tel.Ready() {
		t.Error("Ready before first tick")
	}
	var nilTel *Telemetry
	if nilTel.Ready() {
		t.Error("nil telemetry reports Ready")
	}

	for i := 0; i < 10; i++ {
		tel.Watchdog().Observe(PairOf("a", "b"), 0.7)
	}
	tel.Tick(time.UnixMilli(1_700_000_000_000))
	if !tel.Ready() {
		t.Error("not Ready after a tick")
	}
	if len(drifts) != 1 || drifts[0] != PairOf("a", "b") {
		t.Errorf("OnDrift calls = %v, want one for a⋈b", drifts)
	}
	// The telemetry layer's own scrape counter is in its registry.
	if got := tel.Registry().Snapshot()["sdbd_telemetry_scrapes_total"]; got != 1 {
		t.Errorf("scrapes counter %g, want 1", got)
	}
}
