package serve

// Rebalancer is the hook a live placement controller (internal/rebalance)
// implements. The serve layer defines the interface so the dependency points
// outward: nothing under serve imports the controller, and a daemon without
// one attached behaves bit-identically — the admission path pays one nil
// pointer load per request.
type Rebalancer interface {
	// Observe records one arriving request for the popularity estimator.
	// It must be cheap and non-blocking: it sits on the admission path.
	Observe(video int)
	// Trigger requests an immediate rebalance round (coalesced when one is
	// already pending); it reports whether the controller accepted the kick.
	Trigger() bool
	// Status returns a snapshot of the controller's state for GET /rebalance.
	Status() RebalanceStatus
	// Stop terminates the control loop and waits for in-flight copies.
	Stop()
}

// RebalanceAction is one journaled rebalancer decision, mirroring
// RepairAction so the two journals read alike.
type RebalanceAction struct {
	TimeNS int64  `json:"ts_ns"` // tracer-epoch nanoseconds
	Action string `json:"action"`
	Video  int    `json:"video"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Detail string `json:"detail,omitempty"`
}

// RebalanceStatus is the GET /rebalance snapshot.
type RebalanceStatus struct {
	Enabled         bool              `json:"enabled"`
	LayoutVersion   int64             `json:"layout_version"`
	Rounds          int64             `json:"rounds"`
	Migrations      int64             `json:"migrations"`
	Evictions       int64             `json:"evictions"`
	Deferred        int64             `json:"deferred"`
	Skipped         int64             `json:"skipped"`
	Inflight        int               `json:"inflight"`
	PendingMoves    int               `json:"pending_moves"`
	PeakCopyRateBps float64           `json:"peak_copy_rate_bps"`
	Journal         []RebalanceAction `json:"journal"`
}

// AttachRebalancer wires a placement controller into the daemon: every
// settled admission request is observed, and Shutdown stops the loop.
func (s *Server) AttachRebalancer(r Rebalancer) { s.reb.Store(&r) }

// Rebalancer returns the attached placement controller, or nil.
func (s *Server) Rebalancer() Rebalancer {
	if rp := s.reb.Load(); rp != nil {
		return *rp
	}
	return nil
}

// observeDemand feeds one validated request into the attached rebalancer's
// popularity estimator; a no-op (one atomic load) when none is attached.
func (s *Server) observeDemand(v int) {
	if rp := s.reb.Load(); rp != nil {
		(*rp).Observe(v)
	}
}

// LandReplica publishes a migrated replica of video v on backend b: the
// rebalancer's counterpart of the repairer's settle path. The landing routes
// through b's shard owner so it serializes with that shard's admission
// stream; the holder list is republished atomically and
// vod_migrations_total counts it.
func (s *Server) LandReplica(v, b int) error {
	if err := s.checkReplica(v, b); err != nil {
		return err
	}
	_, err := s.eng.directory(opLand, v, b)
	return err
}

// PinnedSessions counts live sessions pinned to video v's replica on backend
// b: sessions streaming v from b's outgoing link plus redirected sessions of
// v sourced from b's copy, across every shard registry. A pinned replica
// must not be evicted.
func (s *Server) PinnedSessions(v, b int) int {
	n := 0
	for _, sh := range s.eng.shards {
		sh.regMu.Lock()
		for _, sess := range sh.reg {
			if sess.video == v && (sess.grant.Server == b || sess.grant.Source == b) {
				n++
			}
		}
		sh.regMu.Unlock()
	}
	return n
}

// EvictReplica removes video v's replica from backend b when it is safe: the
// copy must exist, must not be the video's last live copy, and must have no
// pinned sessions. The eviction runs on b's shard owner, exclusive with every
// admission that could pin the replica on that shard, and the pinned check
// runs again after the holder list shrinks — a session admitted between
// check and removal rolls the eviction back, so an admission racing the
// eviction never loses its replica.
func (s *Server) EvictReplica(v, b int) error {
	if err := s.checkReplica(v, b); err != nil {
		return err
	}
	_, err := s.eng.directory(opEvict, v, b)
	return err
}

// checkReplica validates a (video, backend) pair named by the rebalancer.
func (s *Server) checkReplica(v, b int) error {
	if v < 0 || v >= s.c.Videos() {
		return ErrNoReplica
	}
	if b < 0 || b >= s.c.Servers() {
		return &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	return nil
}
