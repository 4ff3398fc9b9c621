package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vodcluster"
	"vodcluster/internal/serve"
	"vodcluster/internal/sim"
	"vodcluster/internal/workload"
)

// admit-open: viewers arrive independently, so the load is an open loop.
// 5k single POST /open per wall second over 2 keep-alive connections, into
// the default single-shard least-loaded engine behind one listener. The
// compression factor is 1.5 × the rate, which makes the virtual arrival rate
// the paper's λ = 40/min on config.Paper(); sessions end by expiry only.
const (
	openRate  = 5000.0
	openConns = 2
	// openMinOffered is the least share of the asked-for rate the generator
	// must reach for the run to measure the daemon rather than itself.
	openMinOffered = 0.98
	// simTolPts bounds |live − sim.Run| rejection on the same trace, in
	// percentage points.
	simTolPts = 2.0
)

// openCompress is the admit-open time-compression factor.
const openCompress = 1.5 * openRate

// openLane is one connection of the admit-open generator: a writer that
// sends each request when it falls due and never waits for replies, and a
// reader that times each reply from its request's write.
type openLane struct {
	fc  *serve.FastConn
	due []int64 // ns after the phase start
	vid []int

	written atomic.Int64 // requests handed to the socket so far
	wt      []int64      // write time per request, ns after the phase start
	lat     []float64    // reply − write per request, µs
	last    int64        // last reply, ns after the phase start

	accepted, rejected int64
}

// openPhase is what one pass of the trace over the live daemon measured.
type openPhase struct {
	lat, late          []float64 // µs per request; ms per request
	accepted, rejected int64
	elapsed            time.Duration // phase start → last reply
	offered            float64       // achieved over asked-for send rate
}

func (ph *openPhase) requests() int64 { return ph.accepted + ph.rejected }

// driveOpen replays tr over the daemon's connections at openCompress,
// splitting requests round-robin across them.
func driveOpen(d *daemon, tr *workload.Trace, buf func() *spanBuf) (*openPhase, error) {
	lanes := make([]*openLane, len(d.conns))
	for i, fc := range d.conns {
		lanes[i] = &openLane{fc: fc}
	}
	for i, rq := range tr.Requests {
		l := lanes[i%len(lanes)]
		l.due = append(l.due, int64(rq.Time/openCompress*1e9))
		l.vid = append(l.vid, rq.Video)
	}
	for _, l := range lanes {
		l.wt = make([]int64, len(l.due))
		l.lat = make([]float64, len(l.due))
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2*len(lanes))
	for i, l := range lanes {
		wg.Add(2)
		go func(i int, l *openLane) {
			defer wg.Done()
			errs[2*i] = l.write(start)
		}(i, l)
		go func(i int, l *openLane, b *spanBuf) {
			defer wg.Done()
			errs[2*i+1] = l.read(start, b)
		}(i, l, buf())
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ph := &openPhase{}
	var lastDue, lastWrite, lastReply int64
	for _, l := range lanes {
		ph.lat = append(ph.lat, l.lat...)
		for k := range l.due {
			ph.late = append(ph.late, float64(l.wt[k]-l.due[k])/1e6)
		}
		n := len(l.due)
		lastDue = max(lastDue, l.due[n-1])
		lastWrite = max(lastWrite, l.wt[n-1])
		lastReply = max(lastReply, l.last)
		ph.accepted += l.accepted
		ph.rejected += l.rejected
	}
	ph.elapsed = time.Duration(lastReply)
	ph.offered = float64(lastDue) / float64(lastWrite)
	return ph, nil
}

// write sleeps to the next due time and flushes every request due by then.
func (l *openLane) write(start time.Time) error {
	n := len(l.due)
	for k := 0; k < n; {
		now := int64(time.Since(start))
		if wait := l.due[k] - now; wait > 0 {
			time.Sleep(time.Duration(wait))
			now = int64(time.Since(start))
		}
		j := k
		for j < n && l.due[j] <= now {
			l.fc.QueueOpen(l.vid[j])
			j++
		}
		if j == k {
			continue
		}
		t := int64(time.Since(start))
		for i := k; i < j; i++ {
			l.wt[i] = t
		}
		l.written.Store(int64(j))
		if err := l.fc.Flush(); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		k = j
	}
	return nil
}

// read times every reply from its request's write and counts outcomes.
func (l *openLane) read(start time.Time, b *spanBuf) error {
	for k := range l.due {
		_, out, err := l.fc.ReadOpen()
		if err != nil {
			return fmt.Errorf("reply %d: %w", k, err)
		}
		t := int64(time.Since(start))
		if int64(k) >= l.written.Load() {
			return fmt.Errorf("reply %d arrived before its request was written", k)
		}
		l.lat[k] = float64(t-l.wt[k]) / 1e3
		l.last = t
		switch out {
		case serve.OutcomeAccepted:
			l.accepted++
		case serve.OutcomeRejected:
			l.rejected++
		default:
			return fmt.Errorf("reply %d: unexpected outcome %q", k, out)
		}
		b.add("ingress.open", 0, start.Add(time.Duration(l.wt[k])), start.Add(time.Duration(t)))
	}
	return nil
}

// warmOpen runs 16 rounds of 256 pipelined opens per connection, closing
// what each round admitted, and leaves the cluster empty. Large round
// trips keep set-up time about the daemon's work rather than loopback
// wake-ups, and many of them average out the host's scheduling stalls.
func warmOpen(d *daemon) error {
	const rounds, per = 16, 256
	for _, fc := range d.conns {
		ids := make([]int64, 0, per)
		for round := 0; round < rounds; round++ {
			for i := 0; i < per; i++ {
				fc.QueueOpen((round*per + i) % d.p.M())
			}
			if err := fc.Flush(); err != nil {
				return err
			}
			ids = ids[:0]
			for i := 0; i < per; i++ {
				info, out, err := fc.ReadOpen()
				if err != nil {
					return err
				}
				if out == serve.OutcomeAccepted {
					ids = append(ids, info.ID)
				}
			}
			for _, id := range ids {
				fc.QueueClose(id)
			}
			if err := fc.Flush(); err != nil {
				return err
			}
			for range ids {
				if _, err := fc.ReadClose(); err != nil {
					return err
				}
			}
		}
	}
	return settle(d.srv, 5*time.Second)
}

// simRejectRate runs sim.Run on tr with the least-loaded scheduler, the
// policy the daemon runs, and returns its rejection rate.
func simRejectRate(d *daemon, tr *workload.Trace, seed int64) (float64, error) {
	newSched, err := vodcluster.SchedulerFactory("least-loaded", false)
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(sim.Config{
		Problem: d.p, Layout: d.layout, NewScheduler: newSched,
		Trace: tr, Duration: tr.Meta.Duration, Seed: seed,
	})
	if err != nil {
		return 0, err
	}
	return res.RejectionRate, nil
}

// checkOpenPhase applies the admit-open correctness checks to one phase.
func checkOpenPhase(r *result, d *daemon, ph *openPhase, simRate float64, label string) {
	r.check(ph.offered >= openMinOffered,
		"%s: generator offered %.3f of the asked-for rate (need ≥ %.2f)", label, ph.offered, openMinOffered)
	live := float64(ph.rejected) / float64(ph.requests())
	fmt.Printf("%s: live rejection %.3f%%, sim.Run on the same trace %.3f%%\n", label, 100*live, 100*simRate)
	r.check(math.Abs(live-simRate)*100 <= simTolPts,
		"%s: live rejection %.2f%% is more than %.1f points from sim.Run's %.2f%% on the same trace",
		label, 100*live, simTolPts, 100*simRate)
	// Sessions last 0.72 s of wall time here, so settling takes about that.
	if err := settle(d.srv, 10*time.Second); err != nil {
		r.check(false, "%s: %v", label, err)
	}
}

func runAdmitOpen(o options) (*result, error) {
	r := newResult("admit-open")
	cfg := serve.Config{Compress: openCompress, AdmitDelay: o.admitDelay}
	d, setupTimes, err := setUp(cfg, 1, openConns, o.reps(liveSetupReps), warmOpen)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	if !o.trace {
		tr, err := poissonTrace(d.p, openRate/openCompress, o.seconds*openCompress, o.seed)
		if err != nil {
			return nil, err
		}
		simRate, err := simRejectRate(d, tr, o.seed)
		if err != nil {
			return nil, err
		}
		ph, err := driveOpen(d, tr, func() *spanBuf { return nil })
		if err != nil {
			return nil, err
		}
		lat := summarize(ph.lat)
		r.attempted = int64(len(tr.Requests))
		// Drop the generator's trace and timings so that live_mb holds
		// the daemon, its layout and the connections only.
		tr, ph.lat, ph.late = nil, nil, nil
		mem := liveMB()
		checkOpenPhase(r, d, ph, simRate, "admit-open")
		obj, imb := planScore(d.p, d.layout)
		r.set("setup_s", median(setupTimes), len(setupTimes))
		r.set("p50_ms", lat.p50/1e3, lat.n)
		r.set("decisions_per_s", float64(ph.requests())/ph.elapsed.Seconds(), 0)
		r.set("accept_rate", float64(ph.accepted)/float64(ph.requests()), 0)
		r.set("live_mb", mem, 0)
		r.set("objective", obj, 0)
		r.set("imbalance", imb, 0)
		return r, nil
	}

	// Traced run: the same trace untraced, then traced, then replayed
	// straight into a fresh engine (the ladder rung), a third of the time
	// each.
	tr, err := poissonTrace(d.p, openRate/openCompress, o.seconds/3*openCompress, o.seed)
	if err != nil {
		return nil, err
	}
	simRate, err := simRejectRate(d, tr, o.seed)
	if err != nil {
		return nil, err
	}
	plain, err := driveOpen(d, tr, func() *spanBuf { return nil })
	if err != nil {
		return nil, err
	}
	checkOpenPhase(r, d, plain, simRate, "untraced phase")

	tc := newTracer(1 << 18)
	before, c0 := takeProc(), readCounters(d)
	smp := startSampler(d.srv.Active)
	ph, err := driveOpen(d, tr, tc.buf)
	smp.finish()
	if err != nil {
		return nil, err
	}
	pd, c1 := before.to(takeProc()), readCounters(d)
	checkOpenPhase(r, d, ph, simRate, "traced phase")
	setEngineCounters(r, c0.to(c1), ph.requests(), ph.accepted)

	opens, err := ladderOpen(cfg, d, tr, tc.buf())
	if err != nil {
		return nil, err
	}
	r.attempted = 2*int64(len(tr.Requests)) + int64(len(opens))

	rt, eng, late := summarize(ph.lat), summarize(opens), summarize(ph.late)
	r.set("ingress.rt_us.p50", rt.p50, rt.n)
	r.set("ingress.rt_us.p99", rt.p99, rt.n)
	r.set("ingress.self_us.p50", rt.p50-eng.p50, rt.n)
	r.set("ingress.batch_us_per_decision", mean(ph.lat), rt.n)
	r.set("engine.open_us.p50", eng.p50, eng.n)
	r.set("engine.open_us.p99", eng.p99, eng.n)
	r.set("engine.close_us.p50", 0, 0)
	r.set("engine.active_mean", smp.activeMean(), smp.samples)
	r.set("gen.late_ms.p50", late.p50, late.n)
	r.set("gen.late_ms.p99", late.p99, late.n)
	r.set("gen.offered_ratio", ph.offered, 0)
	setProc(r, pd, ph.requests(), ph.requests(), smp)
	r.set("trace.overhead_ms", (rt.p50-summarize(plain.lat).p50)/1e3, rt.n)
	return r, writeSpans(tc, o, r)
}

// ladderOpen replays tr straight into Server.Open of a fresh engine with
// the same configuration, paced like the live run, timing each call.
func ladderOpen(cfg serve.Config, d *daemon, tr *workload.Trace, b *spanBuf) ([]float64, error) {
	srv, err := serve.New(d.p, d.layout, cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown()
	opens := make([]float64, 0, len(tr.Requests))
	start := time.Now()
	for _, rq := range tr.Requests {
		due := time.Duration(rq.Time / openCompress * 1e9)
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		_, out, err := srv.Open(rq.Video)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if out != serve.OutcomeAccepted && out != serve.OutcomeRejected {
			return nil, fmt.Errorf("engine: unexpected outcome %q", out)
		}
		opens = append(opens, float64(t1.Sub(t0))/1e3)
		b.add("engine.open", 0, t0, t1)
	}
	if err := settle(srv, 10*time.Second); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	return opens, nil
}
