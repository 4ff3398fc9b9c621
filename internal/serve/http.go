package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"vodcluster/internal/faults"
)

// errorBody is the JSON error/outcome envelope of the HTTP API.
type errorBody struct {
	Outcome Outcome `json:"outcome,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// layoutBody is the GET /layout response: the layout plus enough of the
// problem to interpret it.
type layoutBody struct {
	Servers      int     `json:"servers"`
	Videos       int     `json:"videos"`
	Degree       float64 `json:"degree"`
	Policy       string  `json:"policy"`
	Compress     float64 `json:"compress"`
	BackboneBps  int64   `json:"backbone_bps"`
	CapacityBps  []int64 `json:"capacity_bps"`
	Replicas     []int   `json:"replicas"`
	VideoServers [][]int `json:"video_servers"`
	// LayoutVersion is the monotone replica-directory version: 1 at startup,
	// bumped on every repair copy, migration, or eviction.
	LayoutVersion int64 `json:"layout_version"`
	// LiveReplicas is the current per-video replica count in the live
	// directory — unlike Replicas (the planned counts), it tracks runtime
	// mutation by the repairer and rebalancer.
	LiveReplicas []int `json:"live_replicas"`
	// ReplicatedBytes is the total storage footprint of every replica in the
	// live directory.
	ReplicatedBytes float64 `json:"replicated_bytes"`
	// Shards is the number of dispatch shards the daemon runs (1 = one
	// owner goroutine commits every admission).
	Shards int `json:"shards"`
}

// healthBody is the GET /healthz response.
type healthBody struct {
	Status          string   `json:"status"`
	ActiveSessions  int64    `json:"active_sessions"`
	DrainedBackends int      `json:"drained_backends"`
	BackendStates   []string `json:"backend_states"`
}

// repairsBody is the GET /repairs response.
type repairsBody struct {
	Enabled   bool           `json:"enabled"`
	Started   int64          `json:"started"`
	Completed int64          `json:"completed"`
	Aborted   int64          `json:"aborted"`
	Skipped   int64          `json:"skipped"`
	Inflight  int            `json:"inflight"`
	Journal   []RepairAction `json:"journal"`
}

// Handler returns the daemon's HTTP API:
//
//	POST   /session?video=V        admit a session (200 / 503 with outcome)
//	POST   /open                   admit a session; body {"video":V}
//	POST   /open/batch             admit many; body {"videos":[v0,v1,…]}
//	POST   /close                  end a session early; body {"id":N}
//	DELETE /session/{id}           end a session early
//	POST   /backend/{id}/drain     drain a backend (fails sessions over)
//	POST   /backend/{id}/restore   restore a drained backend
//	POST   /backend/{id}/fail      crash a backend (evicts its sessions)
//	POST   /backend/{id}/recover   recover a crashed backend
//	POST   /fault                  apply one fault-schedule event (JSON body)
//	GET    /repairs                re-replication journal and counters
//	GET    /rebalance              placement-controller status and journal
//	POST   /rebalance/trigger      request an immediate rebalance round
//	GET    /metrics                Prometheus text exposition
//	GET    /healthz                liveness + drain status + backend states
//	GET    /layout                 the layout being served
//	GET    /debug/trace            session-trace dump (when tracing is on);
//	                               ?format=chrome renders Chrome trace_event
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", s.handleOpen)
	mux.HandleFunc("POST /open", s.handleOpenFast)
	mux.HandleFunc("POST /open/batch", s.handleOpenBatch)
	mux.HandleFunc("POST /close", s.handleCloseFast)
	mux.HandleFunc("DELETE /session/{id}", s.handleClose)
	mux.HandleFunc("POST /backend/{id}/drain", s.handleDrain)
	mux.HandleFunc("POST /backend/{id}/restore", s.handleRestore)
	mux.HandleFunc("POST /backend/{id}/fail", s.handleFail)
	mux.HandleFunc("POST /backend/{id}/recover", s.handleRecover)
	mux.HandleFunc("POST /fault", s.handleFault)
	mux.HandleFunc("GET /repairs", s.handleRepairs)
	mux.HandleFunc("GET /rebalance", s.handleRebalance)
	mux.HandleFunc("POST /rebalance/trigger", s.handleRebalanceTrigger)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /layout", s.handleLayout)
	if s.tracer != nil {
		mux.HandleFunc("GET /debug/trace", s.handleTraceDump)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeRaw sends a pre-encoded JSON body with an explicit Content-Length.
// The hand-rolled fast client has no chunked decoder, so the body-first
// admission routes must never fall into net/http's chunked framing (which
// kicks in when WriteHeader precedes Write without a declared length).
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// readFastBody slurps a hot-path request body, bounded by the same cap the
// sharded ingress enforces.
func readFastBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, defaultMaxBody))
}

// handleOpenFast is POST /open: the body-first twin of POST /session,
// sharing its wire format with the sharded ingress so the fast client works
// against either front.
func (s *Server) handleOpenFast(w http.ResponseWriter, r *http.Request) {
	body, err := readFastBody(w, r)
	if err != nil {
		writeRaw(w, http.StatusRequestEntityTooLarge, appendOutcome(nil, "", "request body too large"))
		return
	}
	v, err := parseOpenBody(body)
	if err != nil {
		writeRaw(w, http.StatusBadRequest, appendOutcome(nil, "", err.Error()))
		return
	}
	info, outcome, oerr := s.OpenRetry(r.Context(), v)
	status := http.StatusOK
	switch {
	case oerr != nil:
		status = http.StatusBadRequest
	case outcome != OutcomeAccepted:
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeRaw(w, status, appendOpenResult(nil, info, outcome, oerr))
}

// handleOpenBatch is POST /open/batch: one round trip, many admissions,
// answered as a JSON array aligned with the request order.
func (s *Server) handleOpenBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readFastBody(w, r)
	if err != nil {
		writeRaw(w, http.StatusRequestEntityTooLarge, appendOutcome(nil, "", "request body too large"))
		return
	}
	vids, err := parseBatchBody(body, nil)
	if err != nil {
		writeRaw(w, http.StatusBadRequest, appendOutcome(nil, "", err.Error()))
		return
	}
	if len(vids) > defaultMaxBatch {
		writeRaw(w, http.StatusBadRequest, appendOutcome(nil, "",
			fmt.Sprintf("batch of %d exceeds the %d-video cap", len(vids), defaultMaxBatch)))
		return
	}
	resp := []byte{'['}
	for i, v := range vids {
		if i > 0 {
			resp = append(resp, ',')
		}
		info, outcome, oerr := s.OpenRetry(r.Context(), v)
		resp = appendOpenResult(resp, info, outcome, oerr)
	}
	resp = append(resp, ']')
	writeRaw(w, http.StatusOK, resp)
}

// handleCloseFast is POST /close: the body-first twin of DELETE /session/{id}.
func (s *Server) handleCloseFast(w http.ResponseWriter, r *http.Request) {
	body, err := readFastBody(w, r)
	if err != nil {
		writeRaw(w, http.StatusRequestEntityTooLarge, appendOutcome(nil, "", "request body too large"))
		return
	}
	id, err := parseCloseBody(body)
	if err != nil {
		writeRaw(w, http.StatusBadRequest, appendOutcome(nil, "", err.Error()))
		return
	}
	if !s.Close(id) {
		writeRaw(w, http.StatusNotFound, appendOutcome(nil, "", "no such session"))
		return
	}
	writeRaw(w, http.StatusOK, appendOutcome(nil, "closed", ""))
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	v, err := strconv.Atoi(r.URL.Query().Get("video"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "video must be an integer catalog rank"})
		return
	}
	info, outcome, err := s.OpenRetry(r.Context(), v)
	switch {
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Outcome: outcome, Error: err.Error()})
	case outcome == OutcomeAccepted:
		writeJSON(w, http.StatusOK, info)
	default: // rejected or draining: the VoD "busy signal"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Outcome: outcome})
	}
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "session id must be an integer"})
		return
	}
	if !s.Close(id) {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such session"})
		return
	}
	writeJSON(w, http.StatusOK, errorBody{Outcome: "closed"})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	b, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "backend id must be an integer"})
		return
	}
	failedOver, dropped, err := s.DrainBackend(b)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"failed_over": failedOver, "dropped": dropped})
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	b, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "backend id must be an integer"})
		return
	}
	if err := s.RestoreBackend(b); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, errorBody{Outcome: "restored"})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	b, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "backend id must be an integer"})
		return
	}
	if err := s.ApplyFault(faults.Event{Action: faults.ActionFail, Backend: b}); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, errorBody{Outcome: "failed"})
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	b, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "backend id must be an integer"})
		return
	}
	if err := s.ApplyFault(faults.Event{Action: faults.ActionRecover, Backend: b}); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, errorBody{Outcome: "recovering"})
}

func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	var e faults.Event
	if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "fault event body: " + err.Error()})
		return
	}
	if e.Backend < 0 || e.Backend >= s.c.Servers() {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: (&BackendRangeError{Backend: e.Backend, Servers: s.c.Servers()}).Error()})
		return
	}
	if err := s.ApplyFault(e); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, errorBody{Outcome: Outcome(e.Action)})
}

func (s *Server) handleRepairs(w http.ResponseWriter, _ *http.Request) {
	rep := s.rep.Load()
	if rep == nil {
		writeJSON(w, http.StatusOK, repairsBody{})
		return
	}
	writeJSON(w, http.StatusOK, repairsBody{
		Enabled:   true,
		Started:   rep.Started(),
		Completed: rep.Completed(),
		Aborted:   rep.Aborted(),
		Skipped:   rep.Skipped(),
		Inflight:  rep.Inflight(),
		Journal:   rep.Journal(),
	})
}

func (s *Server) handleRebalance(w http.ResponseWriter, _ *http.Request) {
	r := s.Rebalancer()
	if r == nil {
		writeJSON(w, http.StatusOK, RebalanceStatus{LayoutVersion: s.c.LayoutVersion()})
		return
	}
	writeJSON(w, http.StatusOK, r.Status())
}

func (s *Server) handleRebalanceTrigger(w http.ResponseWriter, _ *http.Request) {
	r := s.Rebalancer()
	if r == nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: "rebalancer not enabled"})
		return
	}
	r.Trigger()
	writeJSON(w, http.StatusAccepted, errorBody{Outcome: "triggered"})
}

func (s *Server) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var err error
	if r.URL.Query().Get("format") == "chrome" {
		err = s.tracer.WriteChromeTrace(w)
	} else {
		err = s.tracer.WriteJSON(w)
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// AttachInjector wires a fault injector into the daemon: crash/recover
// faults applied through ApplyFault are mirrored into it so an
// injector-backed health prober observes the same reality, and slow faults
// become expressible at all.
func (s *Server) AttachInjector(in *faults.Injector) { s.inj.Store(in) }

// Injector returns the attached fault injector, or nil.
func (s *Server) Injector() *faults.Injector { return s.inj.Load() }

// ApplyFault applies one fault-schedule event to the live daemon. Crash and
// recover events act immediately (deterministically, independent of probe
// timing) and are mirrored into the attached injector so health probes
// agree; already-settled transitions (backend already down / not down /
// already draining) are not errors — a scripted schedule and the health
// checker may legitimately race to the same conclusion.
func (s *Server) ApplyFault(e faults.Event) error {
	switch e.Action {
	case faults.ActionFail:
		if in := s.inj.Load(); in != nil {
			in.Crash(e.Backend)
		}
		_, _, err := s.FailBackend(e.Backend)
		if errors.Is(err, ErrBackendDown) {
			err = nil
		}
		return err
	case faults.ActionRecover:
		if in := s.inj.Load(); in != nil {
			in.Recover(e.Backend)
		}
		err := s.RecoverBackend(e.Backend)
		if errors.Is(err, ErrBackendNotDown) {
			err = nil
		}
		return err
	case faults.ActionSlow:
		in := s.inj.Load()
		if in == nil {
			return fmt.Errorf("serve: slow fault requires an attached injector")
		}
		in.Slow(e.Backend, time.Duration(e.SlowMS)*time.Millisecond)
		return nil
	case faults.ActionDrain:
		_, _, err := s.DrainBackend(e.Backend)
		if errors.Is(err, ErrBackendDraining) {
			err = nil
		}
		return err
	case faults.ActionRestore:
		return s.RestoreBackend(e.Backend)
	}
	return fmt.Errorf("serve: unknown fault action %q", e.Action)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.Render(w, s.c, s.Active(), s.PolicyName())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	drained := 0
	states := make([]string, s.c.Servers())
	for b := 0; b < s.c.Servers(); b++ {
		if s.c.Draining(b) {
			drained++
		}
		states[b] = s.c.State(b).String()
	}
	status, code := "ok", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthBody{Status: status, ActiveSessions: s.Active(),
		DrainedBackends: drained, BackendStates: states})
}

func (s *Server) handleLayout(w http.ResponseWriter, _ *http.Request) {
	caps := make([]int64, s.c.Servers())
	for b := range caps {
		caps[b] = s.c.Capacity(b)
	}
	servers := make([][]int, s.c.Videos())
	liveReplicas := make([]int, s.c.Videos())
	for v := range servers {
		servers[v] = append([]int(nil), s.c.Holders(v)...)
		liveReplicas[v] = len(servers[v])
	}
	writeJSON(w, http.StatusOK, layoutBody{
		Servers:         s.c.Servers(),
		Videos:          s.c.Videos(),
		Degree:          s.c.Layout().ReplicationDegree(),
		Policy:          s.PolicyName(),
		Compress:        s.compress,
		BackboneBps:     int64(s.c.Problem().BackboneBandwidth),
		CapacityBps:     caps,
		Replicas:        append([]int(nil), s.c.Layout().Replicas...),
		VideoServers:    servers,
		LayoutVersion:   s.c.LayoutVersion(),
		LiveReplicas:    liveReplicas,
		ReplicatedBytes: s.c.TotalReplicatedBytes(),
		Shards:          s.Shards(),
	})
}
