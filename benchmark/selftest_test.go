package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// endToEndBounds reads each end-to-end metric's bound from BENCHMARK.json.
func endToEndBounds(t *testing.T) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	bounds := make(map[string]float64)
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, d := range endToEnd {
		if _, ok := bounds[d.name]; !ok {
			t.Fatalf("BENCHMARK.json has no bound for %s", d.name)
		}
	}
	return bounds
}

// runWorkload runs one workload and, when wantCorrect, fails the test on
// any failed correctness check.
func runWorkload(t *testing.T, fn func(options) (*result, error), o options, wantCorrect bool) *result {
	t.Helper()
	r, err := fn(o)
	if err != nil {
		t.Fatal(err)
	}
	if wantCorrect && len(r.problems) > 0 {
		t.Fatalf("%s: correctness checks failed: %v", r.workload, r.problems)
	}
	return r
}

// TestAdmitDelayMovesOnlyTheLiveWorkloads slows every admission decision
// with serve.Config.AdmitDelay. The live workloads must report it beyond
// their bounds; the planner, which never admits, must not move.
func TestAdmitDelayMovesOnlyTheLiveWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	bounds := endToEndBounds(t)
	base := options{seed: 5, setupReps: 1}
	slow := base
	slow.admitDelay = 200 * time.Microsecond

	base.seconds, slow.seconds = 2, 2
	o0 := runWorkload(t, runAdmitOpen, base, true)
	o1 := runWorkload(t, runAdmitOpen, slow, false)
	was, got := o0.values["p50_ms"].v, o1.values["p50_ms"].v
	if got <= was*(1+bounds["p50_ms"]) {
		t.Errorf("admit-open p50_ms went %g → %g with the delay; want a rise beyond the %g bound", was, got, bounds["p50_ms"])
	}

	// A short run, yet long enough to fill the cluster (24 batches per
	// connection): with the delay every one of its decisions sleeps.
	base.seconds, slow.seconds = 0.05, 0.05
	b0 := runWorkload(t, runAdmitBatch, base, true)
	b1 := runWorkload(t, runAdmitBatch, slow, false)
	was, got = b0.values["decisions_per_s"].v, b1.values["decisions_per_s"].v
	if got >= was*(1-bounds["decisions_per_s"]) {
		t.Errorf("admit-batch decisions_per_s went %g → %g with the delay; want a fall beyond the %g bound", was, got, bounds["decisions_per_s"])
	}

	// The planner's timings move with the host's speed over seconds, so
	// alternate the two sides and compare medians.
	base.seconds, slow.seconds = 1, 1
	var p50s [2][]float64
	for i := 0; i < 3; i++ {
		p0 := runWorkload(t, runPlanEval, base, true)
		p1 := runWorkload(t, runPlanEval, slow, true)
		for _, name := range []string{"accept_rate", "objective", "imbalance"} {
			if p0.values[name] != p1.values[name] {
				t.Errorf("plan-eval %s moved with the admission delay: %v → %v", name, p0.values[name], p1.values[name])
			}
		}
		p50s[0] = append(p50s[0], p0.values["p50_ms"].v)
		p50s[1] = append(p50s[1], p1.values["p50_ms"].v)
	}
	was, got = median(p50s[0]), median(p50s[1])
	if got > was*(1+bounds["p50_ms"]) || got < was*(1-bounds["p50_ms"]) {
		t.Errorf("plan-eval p50_ms moved with the admission delay: medians %g → %g (bound %g)", was, got, bounds["p50_ms"])
	}
}

// TestTracedRunsReportEveryLayer runs each workload traced and checks that
// the layers it exercises report non-zero figures.
func TestTracedRunsReportEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, c := range []struct {
		fn     func(options) (*result, error)
		layers []string
	}{
		{runAdmitOpen, []string{"ingress.rt_us.p50", "engine.open_us.p50", "gen.offered_ratio", "proc.goroutines_peak", "engine.accepted"}},
		{runAdmitBatch, []string{"ingress.rt_us.p50", "ingress.batch_us_per_decision", "engine.open_us.p50", "engine.close_us.p50", "engine.rejected"}},
		{runPlanEval, []string{"replicate.us", "place.us", "anneal.us", "anneal.steps_per_s", "sim.us", "sim.events", "plan.self_us"}},
	} {
		o := options{seed: 3, seconds: 3, trace: true, spansPath: dir + "/spans.json"}
		r := runWorkload(t, c.fn, o, true)
		for _, name := range c.layers {
			if v, ok := r.values[name]; !ok || v.v <= 0 {
				t.Errorf("%s: traced run reports %s = %v, want a positive figure", r.workload, name, v)
			}
		}
		if _, ok := r.values["trace.overhead_ms"]; !ok {
			t.Errorf("%s: traced run reports no tracing overhead", r.workload)
		}
		if st, err := os.Stat(o.spansPath); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file missing or empty: %v", r.workload, err)
		}
	}
}
