package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"vodcluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/serve"
	"vodcluster/internal/workload"
)

// liveSetupReps is how many times a live workload sets up; setup_s is the
// median. One set-up takes about 50 ms, so the reps span some 3 s and the
// median does not hang on the host's speed in a single instant.
const liveSetupReps = 61

// daemon is one in-process admission daemon behind the sharded ingress,
// with the benchmark's fast client connections to it.
type daemon struct {
	p      *core.Problem
	layout *core.Layout
	srv    *serve.Server
	ing    *serve.Ingress
	conns  []*serve.FastConn
}

// startDaemon plans the paper's default cluster, starts a daemon on it with
// cfg behind an ingress of the given listener count, and dials conns fast
// connections.
func startDaemon(cfg serve.Config, listeners, conns int) (*daemon, error) {
	p, layout, _, err := vodcluster.Pipeline(config.Paper())
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(p, layout, cfg)
	if err != nil {
		return nil, err
	}
	d := &daemon{p: p, layout: layout, srv: srv}
	d.ing, err = serve.NewIngress(srv, serve.IngressConfig{Listeners: listeners})
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	addr, err := d.ing.Start("127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	for i := 0; i < conns; i++ {
		fc, err := serve.DialFast(addr.String())
		if err != nil {
			d.stop()
			return nil, err
		}
		d.conns = append(d.conns, fc)
	}
	return d, nil
}

// stop closes the connections, the ingress and the daemon, and waits for
// their goroutines.
func (d *daemon) stop() {
	for _, fc := range d.conns {
		fc.Close()
	}
	d.ing.Close()
	d.srv.Shutdown()
}

// setUp starts the daemon reps times, running warm on each, and keeps the
// last one. It returns the set-up times in seconds. Each set-up starts from
// a collected heap, so none pays for the garbage of the one before.
func setUp(cfg serve.Config, listeners, conns, reps int, warm func(*daemon) error) (*daemon, []float64, error) {
	var d *daemon
	var times []float64
	for rep := 0; rep < reps; rep++ {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg, listeners, conns); err != nil {
			return nil, nil, err
		}
		if err := warm(d); err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, times, nil
}

// settle waits until srv holds no session and no backend reserves any
// bandwidth, and fails if that does not happen within timeout: a session
// that never settles, or bandwidth that is never returned, is a leak.
func settle(srv *serve.Server, timeout time.Duration) error {
	c := srv.Cluster()
	deadline := time.Now().Add(timeout)
	for {
		leaked := -1
		for s := 0; s < c.Servers(); s++ {
			if c.Used(s) != 0 {
				leaked = s
				break
			}
		}
		if srv.Active() == 0 && leaked < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if leaked >= 0 {
				return fmt.Errorf("backend %d still reserves %d bit/s %s after the load stopped (%d sessions live)",
					leaked, c.Used(leaked), timeout, srv.Active())
			}
			return fmt.Errorf("%d sessions still live %s after the load stopped", srv.Active(), timeout)
		}
		// Sleep rather than yield: spinning on runtime.Gosched here
		// stretched some settles to the next 4 ms scheduler tick, which
		// made set-up time jump at random.
		time.Sleep(50 * time.Microsecond)
	}
}

// thetaOf recovers the Zipf skew of p's catalog from its two most popular
// titles, so generated traces draw videos the way the planner assumed.
func thetaOf(p *core.Problem) float64 {
	pops := p.Catalog.Popularities()
	if len(pops) < 2 || pops[0] <= 0 || pops[1] <= 0 {
		return 0
	}
	return math.Max(0, (math.Log(pops[0])-math.Log(pops[1]))/math.Log(2))
}

// poissonTrace generates a Poisson trace of the given virtual duration at
// rate requests per virtual second over p's catalog.
func poissonTrace(p *core.Problem, rate, duration float64, seed int64) (*workload.Trace, error) {
	gen, err := workload.NewGenerator(workload.Poisson{Lambda: rate}, p.M(), thetaOf(p))
	if err != nil {
		return nil, err
	}
	tr := gen.Generate(duration, seed)
	if len(tr.Requests) == 0 {
		return nil, fmt.Errorf("generated trace is empty")
	}
	return tr, nil
}

// planScore returns Eq. 1 and the Eq. 2 imbalance of the layout a daemon
// serves.
func planScore(p *core.Problem, layout *core.Layout) (objective, imbalance float64) {
	return core.DefaultObjective().Evaluate(p, layout).Value, core.ImbalanceMax(layout.ServerLoads(p))
}

// layerCounters are the daemon counters a traced live phase reports.
type layerCounters struct {
	requests, accepted, conflicts int64
	decisions, fallbacks          int64
}

func readCounters(d *daemon) layerCounters {
	m := d.srv.Metrics()
	h := d.ing.Stats()
	return layerCounters{
		requests: m.Requests(), accepted: m.Accepted(), conflicts: m.SnapshotConflicts(),
		decisions: h.Decisions(), fallbacks: h.Fallbacks(),
	}
}

func (a layerCounters) to(b layerCounters) layerCounters {
	return layerCounters{
		requests: b.requests - a.requests, accepted: b.accepted - a.accepted,
		conflicts: b.conflicts - a.conflicts,
		decisions: b.decisions - a.decisions, fallbacks: b.fallbacks - a.fallbacks,
	}
}

// setEngineCounters reports the daemon's own decision counters for a
// traced phase and checks them against what the clients counted.
func setEngineCounters(r *result, c layerCounters, clientDecisions, clientAccepted int64) {
	r.set("engine.accepted", float64(c.accepted), 0)
	r.set("engine.rejected", float64(c.requests-c.accepted), 0)
	r.set("engine.snapshot_conflicts", float64(c.conflicts), 0)
	if c.decisions > 0 {
		r.set("ingress.fallback_share", float64(c.fallbacks)/float64(c.decisions), 0)
	}
	r.check(c.requests == clientDecisions && c.accepted == clientAccepted,
		"daemon settled %d decisions (%d accepted), clients saw %d (%d accepted)",
		c.requests, c.accepted, clientDecisions, clientAccepted)
}
