package main

import (
	"fmt"
	"time"

	"vodcluster"
	"vodcluster/internal/anneal"
	"vodcluster/internal/cluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/sim"
)

// plan-eval: the offline planner alone, on one goroutine. Each plan is one
// cell of the Fig. 4 grid (degree × λ, cycling): replication and SLF
// placement, sim.Run over one peak period, then a fixed-step §4.3 bit-rate
// anneal on the 50 GB variant. Plans are short so that a run holds hundreds
// of them.
var (
	planDegrees = []float64{1.0, 1.4, 2.0}
	planLambdas = []float64{16, 32, 40} // requests per minute
	planRates   = []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps}
)

// annealSteps is the fixed proposal count of each plan's anneal.
const annealSteps = 20000

// planSetupReps is how many times plan-eval runs its set-up pass over the
// grid; setup_s is the median. A pass takes about 0.2 s, so the reps span
// some 3 s, as the live workloads' set-ups do.
const planSetupReps = 15

// cell is one plan's inputs.
type cell struct {
	degree, lambda float64
	seed           int64 // seeds sim.Run and the anneal
}

// gridCells lists the Fig. 4 cells with seeds derived from the workload
// seed, in the order plans cycle through them.
func gridCells(seed int64) []cell {
	var cells []cell
	for i := 0; i < len(planDegrees)*len(planLambdas); i++ {
		cells = append(cells, cell{
			degree: planDegrees[i%len(planDegrees)],
			lambda: planLambdas[i/len(planDegrees)],
			seed:   int64(splitmix(uint64(seed)*16 + uint64(i))),
		})
	}
	return cells
}

// splitmix is the SplitMix64 finalizer, used to spread derived seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x ^ (x >> 31)) >> 1
}

// planOut is one plan's results. Every field but the timings is a
// deterministic function of the cell.
type planOut struct {
	imbalance, objective       float64
	requests, rejected, events int
	steps, accepted            int
	repl, plc, ann, simTime    time.Duration
}

func (a planOut) sameResult(b planOut) bool {
	return a.imbalance == b.imbalance && a.objective == b.objective &&
		a.requests == b.requests && a.rejected == b.rejected && a.events == b.events &&
		a.steps == b.steps && a.accepted == b.accepted
}

// plan runs one plan. Its spans go to b, which may be nil; traced and
// untraced plans run the same calls.
func plan(c cell, b *spanBuf) (planOut, error) {
	var out planOut
	t0 := time.Now()
	planID := b.reserve()
	s := config.Paper()
	s.Degree, s.LambdaPerMin = c.degree, c.lambda
	p, layout, newSched, err := build(s, b, planID, &out)
	if err != nil {
		return out, err
	}
	if err := layout.Validate(p); err != nil {
		return out, fmt.Errorf("layout: %w", err)
	}
	out.imbalance = core.ImbalanceMax(layout.ServerLoads(p))

	ts := time.Now()
	res, err := sim.Run(sim.Config{Problem: p, Layout: layout, NewScheduler: newSched, Seed: c.seed})
	te := time.Now()
	if err != nil {
		return out, err
	}
	out.simTime = te.Sub(ts)
	b.add("sim", planID, ts, te)
	out.requests, out.rejected, out.events = res.Requests, res.Rejected, res.Events

	s50 := config.Paper()
	s50.StorageGB, s50.LambdaPerMin = 50, c.lambda
	p50, err := s50.Problem()
	if err != nil {
		return out, err
	}
	bp := &anneal.BitRateProblem{P: p50, RateSet: planRates}
	init, err := bp.InitialSolution()
	if err != nil {
		return out, err
	}
	opts := anneal.DefaultOptions()
	opts.Seed, opts.MaxSteps = c.seed, annealSteps
	ta := time.Now()
	ar, err := anneal.Minimize[*anneal.BitRateLayout](bp, init, opts)
	tb := time.Now()
	if err != nil {
		return out, err
	}
	out.ann = tb.Sub(ta)
	b.add("anneal", planID, ta, tb)
	ev := bp.Evaluate(ar.Best)
	if !ev.Feasible() {
		return out, fmt.Errorf("anneal result infeasible: storage %g, bandwidth %g, %d orphans",
			ev.StorageViolation, ev.BandwidthViolation, ev.Orphans)
	}
	out.objective, out.steps, out.accepted = ev.Objective, ar.Steps, ar.Accepted
	t1 := time.Now()
	b.record(planID, "plan", 0, t0, t1)
	return out, nil
}

// build does what vodcluster.Pipeline does, calling the replication and
// placement layers itself so each is timed, as a child of the plan span,
// and leaving the layout's validation to plan.
func build(s config.Scenario, b *spanBuf, planID int64, out *planOut) (*core.Problem, *core.Layout, func() cluster.Scheduler, error) {
	p, err := s.Problem()
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := vodcluster.ReplicatorByName(s.Replicator)
	if err != nil {
		return nil, nil, nil, err
	}
	pl, err := vodcluster.PlacerByName(s.Placer)
	if err != nil {
		return nil, nil, nil, err
	}
	budget, err := p.TargetTotalReplicas(s.Degree)
	if err != nil {
		return nil, nil, nil, err
	}
	t0 := time.Now()
	replicas, err := r.Replicate(p, budget)
	t1 := time.Now()
	if err != nil {
		return nil, nil, nil, err
	}
	b.add("replicate", planID, t0, t1)
	layout, err := pl.Place(p, replicas)
	t2 := time.Now()
	if err != nil {
		return nil, nil, nil, err
	}
	b.add("place", planID, t1, t2)
	out.repl, out.plc = t1.Sub(t0), t2.Sub(t1)
	newSched, err := vodcluster.SchedulerFactory(s.Scheduler, p.BackboneBandwidth > 0)
	return p, layout, newSched, err
}

// gridPass runs every cell once and returns the results in cell order.
func gridPass(cells []cell) ([]planOut, error) {
	outs := make([]planOut, len(cells))
	for i, c := range cells {
		var err error
		if outs[i], err = plan(c, nil); err != nil {
			return nil, fmt.Errorf("cell degree %.1f λ %g: %w", c.degree, c.lambda, err)
		}
	}
	return outs, nil
}

// planPass runs one pass over the grid, checking every plan against the
// reference pass and handing its results to each. It returns the pass's
// mean plan time in ms: a pass holds every cell once, so its mean does not
// depend on where in the cycle a run stops.
func planPass(r *result, cells []cell, ref []planOut, b *spanBuf, each func(planOut)) float64 {
	t0 := time.Now()
	for k, c := range cells {
		out, err := plan(c, b)
		r.attempted++
		if err != nil {
			r.failed++
			r.check(false, "plan of cell %d (degree %.1f, λ %g): %v", k, c.degree, c.lambda, err)
			continue
		}
		r.check(out.sameResult(ref[k]), "plan of cell %d (degree %.1f, λ %g) differs from the reference pass",
			k, c.degree, c.lambda)
		each(out)
	}
	return float64(time.Since(t0)) / 1e6 / float64(len(cells))
}

func runPlanEval(o options) (*result, error) {
	r := newResult("plan-eval")
	cells := gridCells(o.seed)
	// Set-up is the reference pass over the grid, repeated; every
	// repetition must reproduce the first bit for bit.
	var ref []planOut
	var setupTimes []float64
	for rep := 0; rep < o.reps(planSetupReps); rep++ {
		t0 := time.Now()
		outs, err := gridPass(cells)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if ref == nil {
			ref = outs
			continue
		}
		for k := range outs {
			r.check(outs[k].sameResult(ref[k]), "set-up pass %d: cell %d differs from the first pass", rep, k)
		}
	}
	dur := time.Duration(o.seconds * float64(time.Second))

	if !o.trace {
		var simReqs int
		var passMS []float64
		start := time.Now()
		for time.Since(start) < dur {
			passMS = append(passMS, planPass(r, cells, ref, nil, func(out planOut) { simReqs += out.requests }))
		}
		elapsed := time.Since(start)
		mem := liveMB()
		var req, rej int
		var obj, imb float64
		for _, out := range ref {
			req += out.requests
			rej += out.rejected
			obj += out.objective
			imb += out.imbalance
		}
		n := float64(len(ref))
		p50 := summarize(passMS)
		r.set("setup_s", median(setupTimes), len(setupTimes))
		r.set("p50_ms", p50.p50, p50.n)
		r.set("decisions_per_s", float64(simReqs)/elapsed.Seconds(), 0)
		r.set("accept_rate", float64(req-rej)/float64(req), 0)
		r.set("live_mb", mem, 0)
		r.set("objective", obj/n, 0)
		r.set("imbalance", imb/n, 0)
		return r, nil
	}

	// Traced run: untraced and traced passes alternate, so that the host's
	// speed, which drifts over seconds, weighs on both sides of the
	// overhead alike. The process's resource use is summed over the traced
	// passes only.
	tc := newTracer(1 << 18)
	b := tc.buf()
	var outs []planOut
	var plainMS, passMS []float64
	var pd procSnap
	for start := time.Now(); time.Since(start) < dur; {
		plainMS = append(plainMS, planPass(r, cells, ref, nil, func(planOut) {}))
		before := takeProc()
		passMS = append(passMS, planPass(r, cells, ref, b, func(out planOut) { outs = append(outs, out) }))
		pd = pd.plus(before.to(takeProc()))
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("no plan finished in %s", dur)
	}
	self := selfTimes(tc.all(), "plan")
	var repl, plc, ann, simT []float64
	var steps, acc, events, decisions int
	var annSum, simSum time.Duration
	for _, out := range outs {
		repl = append(repl, float64(out.repl)/1e3)
		plc = append(plc, float64(out.plc)/1e3)
		ann = append(ann, float64(out.ann)/1e3)
		simT = append(simT, float64(out.simTime)/1e3)
		steps += out.steps
		acc += out.accepted
		events += out.events
		decisions += out.requests
		annSum += out.ann
		simSum += out.simTime
	}
	refEvents := 0
	for _, out := range ref {
		refEvents += out.events
	}
	sSelf, sRepl, sPlc := summarize(self), summarize(repl), summarize(plc)
	sAnn, sSim := summarize(ann), summarize(simT)
	r.set("plan.self_us", sSelf.p50/1e3, sSelf.n)
	r.set("replicate.us", sRepl.p50, sRepl.n)
	r.set("place.us", sPlc.p50, sPlc.n)
	r.set("anneal.us", sAnn.p50, sAnn.n)
	r.set("anneal.steps_per_s", float64(steps)/annSum.Seconds(), 0)
	r.set("anneal.accept_share", float64(acc)/float64(steps), 0)
	r.set("sim.us", sSim.p50, sSim.n)
	r.set("sim.events_per_s", float64(events)/simSum.Seconds(), 0)
	r.set("sim.events", float64(refEvents)/float64(len(ref)), 0)
	setProc(r, pd, int64(decisions), int64(len(outs)), nil)
	r.set("trace.overhead_ms", median(passMS)-median(plainMS), len(passMS))
	return r, writeSpans(tc, o, r)
}
