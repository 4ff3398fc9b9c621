// Command vodserved is the live cluster dispatch daemon: it loads a layout
// (computed by the replicate/place pipeline from a scenario, or replayed
// from a plan written by vodplace -out), tracks per-backend outgoing
// bandwidth with lock-free atomic accounting, and admits/rejects/redirects
// session requests over HTTP through the configured scheduling policy.
//
//	vodserved -addr :8370                          # paper-default layout
//	vodserved -scenario scenario.json -policy sim:static-rr
//	vodserved -plan plan.json -compress 60         # 1 video-minute per second
//
// Endpoints: POST /session?video=V, DELETE /session/{id},
// POST /open, /open/batch, /close (body-first admission hot path),
// POST /backend/{id}/drain, POST /backend/{id}/restore, GET /metrics
// (Prometheus text), GET /healthz, GET /layout. SIGTERM/SIGINT drain the
// daemon gracefully: new sessions are refused while active ones run out,
// bounded by -drain-timeout.
//
// High-throughput ingress (DESIGN.md §16): -listeners N fronts the daemon
// with N SO_REUSEPORT accept loops running an allocation-free HTTP/1.1
// admission path (keep-alive, pipelining, batched opens capped by -batch);
// every non-admission route falls back to the regular handler stack.
// Per-listener counters and latency histograms render as vod_http_* in
// /metrics.
//
// Observability: -pprof (default on) mounts the net/http/pprof profiling
// endpoints under /debug/pprof/; -trace N enables the session tracer with
// an N-event ring buffer, dumpable at GET /debug/trace (?format=chrome for
// a chrome://tracing / Perfetto-loadable file) — see DESIGN.md §10.
//
// Failure handling (DESIGN.md §12): -faults replays a scripted fault
// schedule (crash/recover/slow/drain/restore events at virtual times)
// against the daemon's own backends; -health-interval starts the
// health-check loop that confirms crashes and promotes recovering backends
// through probation; -repair starts the automatic re-replication repairer;
// -retry enables admission retry-with-backoff. POST /backend/{id}/fail,
// POST /backend/{id}/recover, and POST /fault inject the same faults over
// HTTP.
//
// Online rebalancing (DESIGN.md §14): -rebalance starts the placement
// controller, which re-estimates per-video popularity from the admission
// stream, periodically re-anneals the layout, and migrates replicas under
// the -rebalance-budget bandwidth cap. GET /rebalance reports its status and
// journal; POST /rebalance/trigger forces an immediate round.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vodcluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/faults"
	"vodcluster/internal/obs"
	"vodcluster/internal/policy"
	"vodcluster/internal/rebalance"
	"vodcluster/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vodserved:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8370", "listen address")
	scenarioPath := flag.String("scenario", "", "JSON scenario file; empty uses the paper defaults")
	planPath := flag.String("plan", "", "replay a plan written by vodplace -out instead of recomputing the layout")
	policyName := flag.String("policy", "least-loaded", fmt.Sprintf("admission policy: one of %v", serve.PolicyNames()))
	listPolicies := flag.Bool("list-policies", false, "print the admission-policy registry and exit")
	compress := flag.Float64("compress", 1, "time-compression factor: a D-second video holds bandwidth for D/compress wall seconds")
	shards := flag.Int("shards", 1, "admission dispatch shards (DESIGN.md §15): one owner goroutine per shard commits admissions onto its backends; 1 puts every backend under one owner, >1 partitions them for multi-core admission")
	listeners := flag.Int("listeners", 0, "sharded SO_REUSEPORT ingress accept loops (DESIGN.md §16); 0 serves the plain net/http mux")
	maxBatch := flag.Int("batch", 0, "max videos per POST /open/batch request (0 = default 256)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for active sessions")
	pprofOn := flag.Bool("pprof", true, "mount the net/http/pprof profiling endpoints under /debug/pprof/")
	traceEvents := flag.Int("trace", 0, "enable session tracing with a ring buffer of this many events (0 = off); dump at GET /debug/trace")
	faultsPath := flag.String("faults", "", "replay this JSON fault schedule (crash/recover/slow/drain/restore at virtual times) against the daemon's backends")
	healthInterval := flag.Duration("health-interval", 0, "health-probe cadence per backend; 0 disables the health checker")
	healthFail := flag.Int("health-fail-threshold", 0, "consecutive probe failures that confirm a crash (0 = default 3)")
	healthRecover := flag.Int("health-recover-threshold", 0, "consecutive clean probes that promote a suspect/recovering backend to up (0 = default 2)")
	retryOn := flag.Bool("retry", false, "enable admission retry-with-backoff (simulator resilience defaults: base 5s, factor 2, patience 120s, all virtual time)")
	repairOn := flag.Bool("repair", false, "enable automatic re-replication of under-replicated videos after a backend crash")
	repairBudget := flag.Float64("repair-budget", 0, "cap on total concurrent repair-copy bandwidth, bits/s (0 = per-copy reservations only)")
	rebalanceOn := flag.Bool("rebalance", false, "enable the online placement rebalancer (re-anneals the layout from admission telemetry and migrates replicas)")
	rebalanceInterval := flag.Float64("rebalance-interval", 0, "rebalance control-round cadence in virtual seconds (0 = default 300)")
	rebalanceBudget := flag.Float64("rebalance-budget", 0, "cap on total concurrent migration-copy bandwidth, bits/s (0 = per-copy reservations only)")
	rebalanceCopyRate := flag.Float64("rebalance-copy-rate", 0, "bandwidth one migration copy consumes, bits/s (0 = default 200 Mb/s)")
	rebalanceMaxMoves := flag.Int("rebalance-max-moves", 0, "max adds and max evictions per rebalance round (0 = default 8)")
	rebalanceAnnealSteps := flag.Int("rebalance-anneal-steps", 0, "annealing steps per rebalance round (0 = default 4000)")
	rebalanceMinObserved := flag.Float64("rebalance-min-observed", 0, "decayed observation mass below which a round skips (0 = default 50)")
	rebalanceSeed := flag.Int64("rebalance-seed", 0, "seed of the per-round annealing RNG streams (0 = default 1)")
	flag.Parse()

	if *listPolicies {
		fmt.Print("Admission policies (shared registry, internal/policy):\n\n", policy.ServeList())
		return nil
	}

	p, layout, err := loadLayout(*scenarioPath, *planPath)
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	if *traceEvents > 0 {
		tracer = obs.NewTracer(*traceEvents)
	}
	cfg := serve.Config{Policy: *policyName, Compress: *compress, Tracer: tracer, Shards: *shards}
	if *retryOn {
		cfg.Retry = &serve.RetryConfig{}
	}
	srv, err := serve.New(p, layout, cfg)
	if err != nil {
		return err
	}

	// The injector is always attached: it is what makes injected crashes
	// observable to health probes and slow faults expressible at all.
	injector := faults.NewInjector()
	srv.AttachInjector(injector)
	if *healthInterval > 0 {
		hc := serve.NewHealthChecker(srv, injector, serve.HealthConfig{
			Interval:         *healthInterval,
			FailThreshold:    *healthFail,
			RecoverThreshold: *healthRecover,
		})
		hc.Start()
		c := hc.Config()
		log.Printf("vodserved: health checker probing every %s (fail threshold %d, recover threshold %d)",
			c.Interval, c.FailThreshold, c.RecoverThreshold)
	}
	if *repairOn {
		rep, err := serve.NewRepairer(srv, serve.RepairConfig{Budget: *repairBudget})
		if err != nil {
			return err
		}
		rep.Start()
		log.Printf("vodserved: re-replication repairer started (budget %g bit/s)", *repairBudget)
	}
	if *rebalanceOn {
		ctl, err := rebalance.New(srv, rebalance.Config{
			Interval:         *rebalanceInterval,
			Budget:           *rebalanceBudget,
			CopyRate:         *rebalanceCopyRate,
			MaxMovesPerRound: *rebalanceMaxMoves,
			AnnealSteps:      *rebalanceAnnealSteps,
			MinObserved:      *rebalanceMinObserved,
			Seed:             *rebalanceSeed,
		})
		if err != nil {
			return err
		}
		ctl.Start() // attaches to srv; srv.Shutdown stops it
		log.Printf("vodserved: rebalancer started (interval %gs virtual, budget %g bit/s)",
			ctl.Config().Interval, ctl.Config().Budget)
	}
	var sched *faults.Schedule
	if *faultsPath != "" {
		f, err := os.Open(*faultsPath)
		if err != nil {
			return err
		}
		sched, err = faults.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := sched.Validate(p.N()); err != nil {
			return err
		}
	}

	handler := obs.Middleware(tracer, srv.Handler())
	if *pprofOn {
		handler = withPprof(handler)
	}

	// Two fronts share the drain flow below: the sharded ingress (DESIGN.md
	// §16) or the plain net/http server. stopServing tears down whichever
	// one ran, after the sessions drained.
	errCh := make(chan error, 1)
	var stopServing func() error
	if *listeners > 0 {
		ing, err := serve.NewIngress(srv, serve.IngressConfig{
			Listeners: *listeners, MaxBatch: *maxBatch, Fallback: handler,
		})
		if err != nil {
			return err
		}
		iaddr, err := ing.Start(*addr)
		if err != nil {
			return err
		}
		log.Printf("vodserved: serving %d videos on %d backends at %s (policy %s, compress %gx, %d shards, %d ingress listeners)",
			p.M(), p.N(), iaddr, srv.PolicyName(), srv.Compress(), srv.Shards(), *listeners)
		stopServing = func() error { ing.Close(); return nil }
	} else {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: handler}
		go func() { errCh <- hs.Serve(ln) }()
		log.Printf("vodserved: serving %d videos on %d backends at %s (policy %s, compress %gx, %d shards)",
			p.M(), p.N(), ln.Addr(), srv.PolicyName(), srv.Compress(), srv.Shards())
		stopServing = func() error {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			<-errCh // Serve has returned ErrServerClosed
			return nil
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if sched != nil {
		log.Printf("vodserved: replaying %d scripted fault events at %gx compression", len(sched.Events), srv.Compress())
		go func() {
			err := sched.Run(ctx, srv.Compress(), func(e faults.Event) error {
				log.Printf("vodserved: fault: %s backend %d (t=%gs)", e.Action, e.Backend, e.At)
				return srv.ApplyFault(e)
			})
			if err != nil {
				log.Printf("vodserved: fault schedule: %v", err)
			}
		}()
	}
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("vodserved: draining %d active sessions (timeout %s)", srv.Active(), *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("vodserved: %v", err)
	}
	srv.Shutdown() // stop the health-check and repair loops

	if err := stopServing(); err != nil {
		return err
	}
	log.Printf("vodserved: drained; bye")
	return nil
}

// withPprof mounts the net/http/pprof handlers in front of the API handler.
// The daemon uses its own ServeMux, so the pprof routes are registered
// explicitly rather than through the package's DefaultServeMux side effect.
func withPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}

// loadLayout materializes the problem/layout pair: a persisted plan wins,
// then a scenario run through the replicate/place pipeline, then the paper
// defaults.
func loadLayout(scenarioPath, planPath string) (*core.Problem, *core.Layout, error) {
	if planPath != "" {
		f, err := os.Open(planPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		plan, err := config.LoadPlan(f)
		if err != nil {
			return nil, nil, err
		}
		p, layout, err := plan.Layout()
		return p, layout, err
	}
	s := config.Paper()
	if scenarioPath != "" {
		f, err := os.Open(scenarioPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		if s, err = config.Load(f); err != nil {
			return nil, nil, err
		}
	}
	p, layout, _, err := vodcluster.Pipeline(s)
	return p, layout, err
}
