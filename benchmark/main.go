// Command benchmark measures the live admission daemon and the offline
// planner end to end, and layer by layer in a separate traced run.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload admit-open --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	admit-open   open-loop single POST /open at 5k req/s on 2 connections
//	admit-batch  closed-loop POST /open/batch of 256 on 2 connections, near capacity
//	plan-eval    replicate → place → sim.Run → bit-rate anneal, one Fig. 4 cell per plan
//	all          every workload in turn
//
// With --trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric; with --trace 1 it holds every per-layer metric,
// the tracing overhead, and the spans are written under --spans-dir. A
// failed correctness check prints the result with "correct": false and
// exits with status 1; a setup or transport failure exits with status 1
// and no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the knobs one workload run takes.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// spansPath receives the traced run's spans; empty skips the file.
	spansPath string
	// admitDelay is handed to serve.Config.AdmitDelay; only the self-test
	// sets it, to prove the benchmark sees a slower admission path.
	admitDelay time.Duration
	// setupReps overrides how many set-ups a run times; 0 keeps the
	// workload's own count. Only the self-test sets it, because with an
	// admission delay every set-up takes seconds.
	setupReps int
}

// reps returns o.setupReps, or def when it is not set.
func (o options) reps(def int) int {
	if o.setupReps > 0 {
		return o.setupReps
	}
	return def
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"decisions_per_s", "1/s"},
	{"accept_rate", "share"},
	{"live_mb", "MB"},
	{"objective", "score"},
	{"imbalance", "ratio"},
}

// perLayer lists the metrics a --trace 1 run reports, in print order. A
// layer a workload does not run reads 0 there.
var perLayer = []metricDef{
	{"ingress.rt_us.p50", "us"},
	{"ingress.rt_us.p99", "us"},
	{"ingress.self_us.p50", "us"},
	{"ingress.batch_us_per_decision", "us"},
	{"ingress.fallback_share", "share"},
	{"engine.open_us.p50", "us"},
	{"engine.open_us.p99", "us"},
	{"engine.close_us.p50", "us"},
	{"engine.active_mean", "count"},
	{"engine.accepted", "count"},
	{"engine.rejected", "count"},
	{"engine.snapshot_conflicts", "count"},
	{"gen.late_ms.p50", "ms"},
	{"gen.late_ms.p99", "ms"},
	{"gen.offered_ratio", "ratio"},
	{"proc.cpu_us_per_decision", "us"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_cycles", "count"},
	{"proc.goroutines_peak", "count"},
	{"plan.self_us", "us"},
	{"replicate.us", "us"},
	{"place.us", "us"},
	{"anneal.us", "us"},
	{"anneal.steps_per_s", "1/s"},
	{"anneal.accept_share", "share"},
	{"sim.us", "us"},
	{"sim.events_per_s", "1/s"},
	{"sim.events", "count"},
	{"trace.overhead_ms", "ms"},
}

// value is one measured figure and the number of samples behind it (0 for
// counts, ratios of totals and deterministic results).
type value struct {
	v float64
	n int
}

// result is what one workload run reports.
type result struct {
	workload  string
	attempted int64
	failed    int64
	values    map[string]value
	problems  []string // failed correctness checks
}

func newResult(workload string) *result {
	return &result{workload: workload, values: make(map[string]value)}
}

func (r *result) set(name string, v float64, n int) { r.values[name] = value{v, n} }

// check records a failed correctness check unless ok holds.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each --workload name to its run function.
var workloads = map[string]func(options) (*result, error){
	"admit-open":  runAdmitOpen,
	"admit-batch": runAdmitBatch,
	"plan-eval":   runPlanEval,
}

var workloadOrder = []string{"admit-open", "admit-batch", "plan-eval"}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "admit-open | admit-batch | plan-eval | all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	spansDir := flag.String("spans-dir", ".bench_out", "directory the traced run writes its span file to")
	flag.Parse()

	names := []string{*wl}
	if *wl == "all" {
		names = workloadOrder
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := jsonResult{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, name := range names {
		fn, ok := workloads[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want admit-open, admit-batch, plan-eval or all)\n", name)
			return 2
		}
		o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
		if o.trace {
			o.spansPath = filepath.Join(*spansDir, "spans-"+name+".json")
		}
		res, err := fn(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		printTable(res, defs)
		out.Attempted += res.attempted
		out.Failed += res.failed
		out.Correct = out.Correct && len(res.problems) == 0
		for _, d := range defs {
			key := d.name
			if len(names) > 1 {
				key = name + "/" + d.name
			}
			v := res.values[d.name].v
			if math.IsNaN(v) || math.IsInf(v, 0) {
				out.Correct = false
				fmt.Printf("CHECK FAILED: %s is not a finite number\n", d.name)
				v = 0
			}
			out.Metrics[key] = jsonMetric{Value: v, Unit: d.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printTable prints one workload's metrics with units and sample counts,
// then every failed correctness check.
func printTable(r *result, defs []metricDef) {
	fmt.Printf("== %s (GOMAXPROCS=%d, %d attempted, %d failed)\n", r.workload, runtime.GOMAXPROCS(0), r.attempted, r.failed)
	fmt.Printf("%-32s %16s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		v, ok := r.values[d.name]
		samples := fmt.Sprint(v.n)
		switch {
		case !ok:
			samples = "not run"
		case v.n == 0:
			samples = "-"
		case strings.HasSuffix(d.name, ".p99") && !tailSupported(v.n, 0.99):
			samples += " (under 10 beyond the p99)"
		}
		fmt.Printf("%-32s %16.6g  %-6s %s\n", d.name, v.v, d.unit, samples)
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
}
