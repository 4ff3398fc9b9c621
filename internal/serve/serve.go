// Package serve is the live serving layer: it turns the planner/simulator
// stack into a running cluster dispatch daemon. A Server loads a
// problem/layout pair (from the replicate/place pipeline or a persisted
// plan), tracks per-backend outgoing bandwidth with lock-free atomic
// accounting (Cluster), and admits, rejects, or redirects session requests
// through one dispatch engine (shard.go): the servers are split into
// Config.Shards groups, each owned by a dispatcher goroutine that commits
// admissions onto its servers, and the configured policy is a lock-free
// ranker of candidate servers — the sim:* forms verify their decision
// against a shard-version snapshot and add backbone redirection, mirroring
// the cluster.Scheduler/redirect rules the simulator uses.
//
// Every admitted session lives in its birth shard's registry with a
// (time-compressed) deadline on that shard's expiry heap; natural expiry,
// client close, backend drain without a failover target, or daemon shutdown
// removes the registry entry and so releases the session's bandwidth
// reservation exactly once. Backend drain marks a server ineligible for new
// placements and fails its active sessions over to surviving replica
// holders (resilience semantics); daemon drain stops admissions and waits
// for the active sessions to run out.
//
// The paper connection: this is §5's dispatch model made operational —
// admission control on per-server outgoing bandwidth, replica choice by the
// configured scheduling policy, rejection when every replica holder is
// saturated — so measured live rejection rates can be cross-validated
// against sim.Run on the same request trace (see cmd/vodload -validate).
package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"vodcluster/internal/core"
	"vodcluster/internal/faults"
	"vodcluster/internal/obs"
)

// Outcome classifies one admission decision.
type Outcome string

// Admission outcomes reported by Server.Open and the HTTP API.
const (
	OutcomeAccepted Outcome = "accepted"
	OutcomeRejected Outcome = "rejected"
	OutcomeDraining Outcome = "draining"
)

// SessionInfo is the public record of an admitted session.
type SessionInfo struct {
	ID         int64   `json:"id"`
	Video      int     `json:"video"`
	Server     int     `json:"server"`
	Source     int     `json:"source"`
	RateBps    int64   `json:"rate_bps"`
	Redirected bool    `json:"redirected"`
	ExpiresInS float64 `json:"expires_in_s"`
}

// session is the server-side record of one admitted stream: its id, video,
// and current grant (swapped in place by a failover).
type session struct {
	id    int64
	video int
	grant Grant
}

// Config tunes a Server beyond the problem/layout pair.
type Config struct {
	// Policy names the admission policy (see PolicyNames); empty means
	// least-loaded.
	Policy string
	// Compress divides every session's wall-clock duration: at Compress C a
	// D-second video holds its bandwidth for D/C seconds of real time, so a
	// recorded trace replayed C× faster reproduces the simulator's
	// occupancy process in C× less wall time. 0 means 1 (real time).
	Compress float64
	// MaxSessionWall caps any single session's wall-clock lifetime
	// regardless of compression; 0 means no cap beyond the video duration.
	MaxSessionWall time.Duration
	// Tracer, when non-nil, records every session lifecycle transition
	// (arrive → admit/reject → end/tear/failover) into its ring buffer and
	// exposes GET /debug/trace on the HTTP API. Nil disables tracing at the
	// cost of one branch per event.
	Tracer *obs.Tracer
	// AdmitDelay inserts an artificial stall into every admission decision
	// before the policy runs. It exists for the perf-regression test
	// harness — a knob that provably slows the admit path so the vodperf
	// gate can be shown to catch it — and for latency chaos experiments.
	// Production configurations leave it zero.
	AdmitDelay time.Duration
	// Retry enables admission retry-with-backoff: a capacity-rejected
	// request waits (exponential backoff with jitter, in compressed virtual
	// time) and retries until admitted or its patience runs out, instead of
	// failing immediately. Nil disables retry; see RetryConfig for the
	// tunables, whose defaults mirror the simulator's resilience policy.
	Retry *RetryConfig
	// Shards partitions the cluster's servers into that many admission
	// shards, each owned by one dispatcher goroutine draining its queue in
	// batches and committing admissions onto its own servers (DESIGN.md
	// §15). 0 or 1 means one shard owning every server; values above the
	// server count are clamped to it.
	Shards int
}

// Server is the live dispatch engine. Create with New; all exported methods
// are safe for concurrent use.
type Server struct {
	c          *Cluster
	eng        *engine
	met        *Metrics
	tracer     *obs.Tracer
	admitDelay time.Duration
	compress   float64
	maxWall    time.Duration

	baseCtx  context.Context
	baseStop context.CancelFunc

	activeN  atomic.Int64 // live sessions across every shard registry
	draining atomic.Bool

	retry *retrier // nil unless Config.Retry enabled admission retry

	hc  atomic.Pointer[HealthChecker] // attached health-check loop, if any
	rep atomic.Pointer[Repairer]      // attached re-replication repairer, if any
	reb atomic.Pointer[Rebalancer]    // attached placement controller, if any
	inj atomic.Pointer[faults.Injector]
}

// New builds a Server for a validated problem/layout pair.
func New(p *core.Problem, layout *core.Layout, cfg Config) (*Server, error) {
	c, err := NewCluster(p, layout)
	if err != nil {
		return nil, err
	}
	compress := cfg.Compress
	if compress == 0 {
		compress = 1
	}
	if compress < 0 {
		return nil, fmt.Errorf("serve: compression factor must be positive, got %g", compress)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		c:          c,
		met:        NewMetrics(streamCeiling(p)),
		tracer:     cfg.Tracer,
		admitDelay: cfg.AdmitDelay,
		compress:   compress,
		maxWall:    cfg.MaxSessionWall,
		baseCtx:    ctx,
		baseStop:   stop,
	}
	if s.eng, err = newEngine(s, cfg.Shards, cfg.Policy); err != nil {
		stop()
		return nil, err
	}
	if cfg.Retry != nil {
		r, err := newRetrier(s, *cfg.Retry)
		if err != nil {
			stop()
			s.eng.wait()
			return nil, err
		}
		s.retry = r
	}
	return s, nil
}

// streamCeiling bounds how many sessions the cluster can ever hold
// concurrently — total outgoing capacity over the cheapest encoding rate —
// which sizes the queue-depth histogram so its range covers exactly the
// reachable depths.
func streamCeiling(p *core.Problem) int {
	total := 0.0
	for s := 0; s < p.N(); s++ {
		total += p.BandwidthOf(s)
	}
	minRate := 0.0
	for _, v := range p.Catalog {
		if minRate == 0 || (v.BitRate > 0 && v.BitRate < minRate) {
			minRate = v.BitRate
		}
	}
	if minRate <= 0 {
		return 1024
	}
	n := int(total / minRate)
	if n < 16 {
		n = 16
	}
	return n
}

// Cluster exposes the concurrent accounting state (for metrics and tests).
func (s *Server) Cluster() *Cluster { return s.c }

// Metrics exposes the instrument panel.
func (s *Server) Metrics() *Metrics { return s.met }

// Tracer exposes the session-lifecycle tracer; nil when tracing is off.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// PolicyName reports the active admission policy.
func (s *Server) PolicyName() string { return s.eng.name }

// Compress reports the time-compression factor sessions run under.
func (s *Server) Compress() float64 { return s.compress }

// Active returns the number of live sessions.
func (s *Server) Active() int64 { return s.activeN.Load() }

// Draining reports whether the daemon refuses new sessions.
func (s *Server) Draining() bool { return s.draining.Load() }

// wallDuration returns the compressed wall-clock lifetime of video v.
func (s *Server) wallDuration(v int) time.Duration {
	d := time.Duration(s.c.Problem().Catalog[v].Duration / s.compress * float64(time.Second))
	if s.maxWall > 0 && d > s.maxWall {
		d = s.maxWall
	}
	return d
}

// Open runs one admission decision for video v. On acceptance the session is
// registered with its birth shard, which releases the reservation at the
// session's deadline unless a close or eviction ends it first. The returned
// outcome distinguishes a capacity rejection from a drain refusal.
func (s *Server) Open(v int) (SessionInfo, Outcome, error) {
	arriveNS := s.tracer.NowNS()
	s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindArrive, Video: v})
	if v < 0 || v >= s.c.Videos() {
		s.met.BadVideo()
		return SessionInfo{}, OutcomeRejected, fmt.Errorf("serve: video %d outside catalog of %d", v, s.c.Videos())
	}
	s.observeDemand(v)
	info, outcome := s.attempt(v, arriveNS, true)
	return info, outcome, nil
}

// attempt runs one admission attempt: rank candidates lock-free, submit the
// commit to the owning shard, retry on snapshot conflicts. settleReject
// controls whether a capacity rejection is recorded as a settled decision:
// the retry path passes false for attempts it may later convert into an
// acceptance and records the one final outcome itself, so retries never
// inflate the request counters. Accepted and draining outcomes are always
// final and always recorded here.
func (s *Server) attempt(v int, arriveNS int64, settleReject bool) (SessionInfo, Outcome) {
	e := s.eng
	start := time.Now()
	if s.admitDelay > 0 {
		time.Sleep(s.admitDelay)
	}
	s.met.ObserveQueueDepth(float64(s.activeN.Load()))
	if s.draining.Load() {
		return s.refuseDraining(v, arriveNS, start)
	}
	rate := s.c.Rate(v)
	sc := e.getScratch()
	defer e.putScratch(sc)
	for try := 0; ; try++ {
		verify := e.verify && try < maxSnapshotRetries
		if verify {
			vers := sc.vers[:0]
			for _, sh := range e.shards {
				vers = append(vers, sh.version.Load())
			}
			sc.vers = vers
		}
		var info SessionInfo
		res := refused
		for _, b := range e.rk.rank(s.c, v, rate, sc) {
			if info, res = e.commit(sc, verify, v, b, b, rate); res != refused {
				break
			}
		}
		if res == refused && e.redirect {
			if b, src := redirectTarget(s.c, v, rate); b >= 0 {
				info, res = e.commit(sc, verify, v, b, src, rate)
			}
		}
		switch res {
		case accepted:
			s.met.Decision(true, info.Redirected, false, time.Since(start))
			s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindAdmit,
				Session: info.ID, Video: v, Server: info.Server,
				DurNS: s.tracer.NowNS() - arriveNS})
			return info, OutcomeAccepted
		case conflicted:
			s.met.SnapshotConflict()
			continue // re-decide against a fresh snapshot
		case stopped: // the daemon is shutting down
			return s.refuseDraining(v, arriveNS, start)
		}
		if settleReject {
			s.met.Decision(false, false, false, time.Since(start))
			s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindReject, Video: v,
				DurNS: s.tracer.NowNS() - arriveNS})
		}
		return SessionInfo{}, OutcomeRejected
	}
}

// refuseDraining settles one request refused because the daemon drains.
func (s *Server) refuseDraining(v int, arriveNS int64, start time.Time) (SessionInfo, Outcome) {
	s.met.Decision(false, false, true, time.Since(start))
	s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindDrain, Video: v,
		DurNS: s.tracer.NowNS() - arriveNS})
	return SessionInfo{}, OutcomeDraining
}

// Close ends session id early (the client hung up). It reports whether the
// session was live; ids route to their birth shard's registry.
func (s *Server) Close(id int64) bool {
	return id >= 0 && s.eng.birth(id).settle(id, false)
}

// landRepair publishes a repaired replica of video v on backend dst through
// dst's shard owner. It reports whether the copy became a new replica
// (false: dst already held one).
func (s *Server) landRepair(v, dst int) bool {
	ok, err := s.eng.directory(opRepair, v, dst)
	return ok && err == nil
}

// claimState moves backend b into target (BackendDraining or BackendDown)
// from whatever state it is in, returning the typed error for states the
// transition is not allowed from. The CAS loop makes exactly one of several
// racing claimants win, so every drain or crash is settled exactly once.
func (s *Server) claimState(b int, target BackendState) error {
	for {
		st := s.c.State(b)
		if st == BackendDown {
			return ErrBackendDown
		}
		if st == BackendDraining && target == BackendDraining {
			return ErrBackendDraining
		}
		if s.c.CASState(b, st, target) {
			return nil
		}
	}
}

// DrainBackend takes backend b out of service cooperatively: no new
// placements land on it and every session it was serving (or sourcing, for
// redirected streams) is failed over to a surviving replica holder where
// capacity allows. Sessions with no failover target are dropped. It returns
// the failed-over and dropped counts; the error is a *BackendRangeError for
// an index outside the cluster, ErrBackendDraining when the backend is
// already draining, or ErrBackendDown when it has crashed.
func (s *Server) DrainBackend(b int) (failedOver, dropped int, err error) {
	if b < 0 || b >= s.c.Servers() {
		return 0, 0, &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	if err := s.claimState(b, BackendDraining); err != nil {
		return 0, 0, err
	}
	failedOver, dropped = s.evictSessions(b, "drained")
	return failedOver, dropped, nil
}

// FailBackend crashes backend b: it goes BackendDown immediately (unlike the
// cooperative drain there is no grace — its replicas become unreachable and
// count against live replication, which is what wakes the repairer), and
// every session it carried is failed over or torn. Concurrent FailBackend
// calls settle the crash exactly once: the losers get ErrBackendDown.
func (s *Server) FailBackend(b int) (failedOver, dropped int, err error) {
	if b < 0 || b >= s.c.Servers() {
		return 0, 0, &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	if err := s.claimState(b, BackendDown); err != nil {
		return 0, 0, err
	}
	s.met.BackendFailed()
	s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindHealth,
		Server: b, Detail: "down"})
	failedOver, dropped = s.evictSessions(b, "failed")
	if r := s.rep.Load(); r != nil {
		r.Kick() // scan for under-replicated videos now, not at the next tick
	}
	return failedOver, dropped, nil
}

// evictSessions settles every session that ineligible backend b was serving
// or sourcing: failover onto a surviving replica holder where capacity
// allows, teardown otherwise. Each session stays in its birth registry while
// its failover grant is reserved; the new grant is swapped in (or the entry
// removed, for a teardown) under the registry lock, so a racing Close,
// expiry, or other eviction settles every session exactly once. The scan
// repeats until no session references b, catching sessions another
// backend's eviction concurrently failed over *onto* b. It stops early when
// b returns to service: a restored backend keeps its sessions, and the
// failover ranking, which skips b only while b is ineligible, could
// otherwise move them back onto b forever.
func (s *Server) evictSessions(b int, cause string) (failedOver, dropped int) {
	e := s.eng
	type victim struct {
		id    int64
		video int
	}
	for !s.c.Eligible(b) {
		var affected []victim
		for _, sh := range e.shards {
			sh.regMu.Lock()
			for id, sess := range sh.reg {
				if sess.grant.Server == b || sess.grant.Source == b {
					affected = append(affected, victim{id, sess.video})
				}
			}
			sh.regMu.Unlock()
		}
		if len(affected) == 0 {
			break
		}
		for _, a := range affected {
			ng, ok := e.failover(a.video)
			sh := e.birth(a.id)
			sh.regMu.Lock()
			cur, live := sh.reg[a.id]
			if !live || (cur.grant.Server != b && cur.grant.Source != b) {
				// Ended or moved concurrently; undo our failover reservation.
				sh.regMu.Unlock()
				if ok {
					e.release(ng)
				}
				continue
			}
			// Never commit onto a target that left service after our
			// reservation: its own eviction scan may already have run and
			// missed us. The state read happens under the registry lock that
			// scan takes, so one of the two always sees the other.
			moved := ok && s.c.Eligible(ng.Server)
			old := cur.grant
			if moved {
				cur.grant = ng
			} else {
				delete(sh.reg, a.id)
			}
			sh.regMu.Unlock()
			e.release(old)
			if moved {
				s.met.FailedOver()
				s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindFailover,
					Session: a.id, Video: a.video, Server: ng.Server,
					Detail: "from server " + fmt.Sprint(b)})
				failedOver++
				continue
			}
			if ok {
				e.release(ng)
			}
			e.putSession(cur)
			s.met.Dropped()
			s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindTear,
				Session: a.id, Video: a.video, Server: b, Detail: cause})
			s.activeN.Add(-1)
			dropped++
		}
	}
	return failedOver, dropped
}

// RestoreBackend returns a drained backend to service. A crashed (Down)
// backend does not restore this way — recovery from a crash goes through
// RecoverBackend so re-replicated state is handled deliberately.
func (s *Server) RestoreBackend(b int) error {
	if b < 0 || b >= s.c.Servers() {
		return &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	if s.c.State(b) == BackendDown {
		return ErrBackendDown
	}
	s.c.SetState(b, BackendUp)
	return nil
}

// RecoverBackend brings a crashed backend back: Down → Recovering when a
// health checker is attached (it promotes the backend to Up after enough
// clean probes — flap damping), Down → Up directly otherwise. A backend
// that is not Down returns ErrBackendNotDown.
func (s *Server) RecoverBackend(b int) error {
	if b < 0 || b >= s.c.Servers() {
		return &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	target := BackendUp
	if s.hc.Load() != nil {
		target = BackendRecovering
	}
	if !s.c.CASState(b, BackendDown, target) {
		return ErrBackendNotDown
	}
	s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindHealth,
		Server: b, Detail: target.String()})
	return nil
}

// Drain gracefully stops the daemon: new sessions are refused with the
// draining outcome, and Drain waits until every active session ends or ctx
// expires, whichever is first. On ctx expiry the shard owners are stopped,
// which force-settles the remaining sessions before return.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for s.activeN.Load() != 0 {
		select {
		case <-ctx.Done():
			s.baseStop()
			s.eng.wait()
			return fmt.Errorf("serve: drain timed out; %w", ctx.Err())
		case <-t.C:
		}
	}
	return nil
}

// Shutdown force-settles every session, stops any attached health-check,
// repair, and rebalance loops, and waits for the shard owners to exit.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	if h := s.hc.Load(); h != nil {
		h.Stop()
	}
	if r := s.rep.Load(); r != nil {
		r.Stop()
	}
	if rp := s.reb.Load(); rp != nil {
		(*rp).Stop()
	}
	s.baseStop()
	s.eng.wait()
}
