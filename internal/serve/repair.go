package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vodcluster/internal/core"
	"vodcluster/internal/obs"
)

// RepairConfig tunes the live re-replication repairer. The tuning mirrors
// the simulator's resilience.Policy repair fields (and takes the same
// defaults), so a live run and a sim.Run with equivalent configs repair the
// same videos at the same virtual times.
type RepairConfig struct {
	// MinLive is the live-replica threshold that triggers a repair copy
	// (default 2). A video's effective threshold is min(MinLive, its placed
	// replica count), so thinly-replicated videos on a healthy cluster do
	// not churn.
	MinLive int
	// Interval is the scan cadence in virtual seconds (default 60),
	// divided by the daemon's compression factor for the wall-clock ticker.
	Interval float64
	// CopyRate is the bandwidth one in-flight copy consumes, bits/s
	// (default 200 Mb/s) — reserved on the cluster backbone when the
	// problem defines one, otherwise on the source server's outgoing link,
	// so repair traffic competes with admissions exactly as in the sim.
	CopyRate float64
	// MaxPerScan caps copies started per scan (default 2).
	MaxPerScan int
	// Budget caps the total bits/s of concurrent repair copies; 0 means no
	// cap beyond the per-copy bandwidth reservations (the simulator's
	// behaviour, and the right setting for sim parity).
	Budget float64
}

// withDefaults fills zero-valued tunables with the resilience defaults.
func (c RepairConfig) withDefaults() RepairConfig {
	if c.MinLive == 0 {
		c.MinLive = 2
	}
	if c.Interval == 0 {
		c.Interval = 60
	}
	if c.CopyRate == 0 {
		c.CopyRate = 200 * core.Mbps
	}
	if c.MaxPerScan == 0 {
		c.MaxPerScan = 2
	}
	return c
}

// RepairAction is one journaled repairer decision.
type RepairAction struct {
	TimeNS int64  `json:"ts_ns"` // tracer-epoch nanoseconds
	Action string `json:"action"`
	Video  int    `json:"video"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Detail string `json:"detail,omitempty"`
}

// Repairer is the live counterpart of resilience.Repairer: a background
// loop that scans for videos whose live replica count fell below the
// threshold — the aftermath of a backend crash — and restores copies on
// surviving servers. Each in-flight copy reserves CopyRate on the backbone
// (or the source's outgoing link) for size·8/CopyRate virtual seconds; a
// landed copy is published to the Cluster's holder lists through the
// destination's shard owner, journaled, and counted in
// vod_rereplications_total.
type Repairer struct {
	s   *Server
	cfg RepairConfig

	kick chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	copies   sync.WaitGroup

	mu           sync.Mutex
	inflight     map[int]bool // videos with a copy in flight
	inflightRate float64      // bits/s of concurrent copies
	peakRate     float64      // high-water inflightRate, for budget asserts
	journal      []RepairAction

	started   atomic.Int64
	completed atomic.Int64
	aborted   atomic.Int64
	skipped   atomic.Int64
}

// maxJournal bounds the kept journal; the oldest half is discarded beyond it.
const maxJournal = 4096

// NewRepairer attaches a repairer to srv (FailBackend kicks it for an
// immediate scan). The repairer is created stopped; call Start.
func NewRepairer(srv *Server, cfg RepairConfig) (*Repairer, error) {
	cfg = cfg.withDefaults()
	if cfg.MinLive < 1 || cfg.Interval <= 0 || cfg.CopyRate <= 0 || cfg.MaxPerScan < 1 || cfg.Budget < 0 {
		return nil, fmt.Errorf("serve: invalid repair config %+v", cfg)
	}
	r := &Repairer{
		s:        srv,
		cfg:      cfg,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		inflight: make(map[int]bool),
	}
	srv.rep.Store(r)
	return r, nil
}

// Started returns the number of repair copies begun.
func (r *Repairer) Started() int64 { return r.started.Load() }

// Completed returns the number of repair copies landed as replicas.
func (r *Repairer) Completed() int64 { return r.completed.Load() }

// Aborted returns copies dropped because an endpoint died mid-copy or the
// daemon shut down.
func (r *Repairer) Aborted() int64 { return r.aborted.Load() }

// Skipped returns repair opportunities abandoned for lack of bandwidth,
// storage, budget, or eligible servers.
func (r *Repairer) Skipped() int64 { return r.skipped.Load() }

// Inflight returns the number of copies currently in flight.
func (r *Repairer) Inflight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.inflight)
}

// PeakCopyRate returns the high-water mark of concurrent repair bandwidth in
// bits/s — what the budget bounds when one is configured.
func (r *Repairer) PeakCopyRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peakRate
}

// Journal returns a copy of the journaled repair actions, oldest first.
func (r *Repairer) Journal() []RepairAction {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RepairAction(nil), r.journal...)
}

// Start launches the scan loop.
func (r *Repairer) Start() {
	go func() {
		defer close(r.done)
		wall := time.Duration(r.cfg.Interval / r.s.compress * float64(time.Second))
		tick := time.NewTicker(wall)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-r.kick:
				r.scan()
			case <-tick.C:
				r.scan()
			}
		}
	}()
}

// Stop terminates the scan loop, aborts in-flight copies, and waits for
// everything to wind down.
func (r *Repairer) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.copies.Wait()
}

// Kick requests an immediate scan (coalesced if one is already pending);
// FailBackend calls it so repair starts at the crash, not the next tick.
func (r *Repairer) Kick() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// scan mirrors resilience.Repairer.Tick: walk the catalog hottest-first
// (lowest rank — the catalog is popularity-ordered) and start up to
// MaxPerScan copies for videos below their live-replica threshold.
func (r *Repairer) scan() {
	c := r.s.Cluster()
	started := 0
	for v := 0; v < c.Videos() && started < r.cfg.MaxPerScan; v++ {
		r.mu.Lock()
		busy := r.inflight[v]
		r.mu.Unlock()
		if busy {
			continue
		}
		threshold := r.cfg.MinLive
		if placed := len(c.Holders(v)); placed < threshold {
			threshold = placed
		}
		if c.LiveReplicas(v) >= threshold {
			continue
		}
		if r.startCopy(v) {
			started++
		} else {
			r.skipped.Add(1)
		}
	}
}

// storageFree returns server s's unaccounted content storage: its capacity
// minus every replica it currently holds (including repair-landed ones).
func (r *Repairer) storageFree(s int) float64 {
	c := r.s.Cluster()
	p := c.Problem()
	used := 0.0
	for v := 0; v < c.Videos(); v++ {
		for _, h := range c.Holders(v) {
			if h == s {
				used += p.Catalog[v].SizeBytes()
			}
		}
	}
	return p.StorageOf(s) - used
}

// startCopy begins re-replicating v from its most-free surviving holder onto
// the most-free eligible non-holder with storage room, reserving the copy
// bandwidth for the transfer's (compressed) duration. Candidate selection
// matches resilience.Repairer.startCopy so the live and simulated repairers
// pick identical endpoints given identical cluster states.
func (r *Repairer) startCopy(v int) bool {
	c := r.s.Cluster()
	p := c.Problem()

	src, srcFree := -1, int64(0)
	for _, s := range c.Holders(v) {
		if c.State(s) == BackendDown {
			continue
		}
		if free := c.Free(s); src == -1 || free > srcFree {
			src, srcFree = s, free
		}
	}
	if src == -1 {
		return false // every replica is down: nothing to copy from
	}
	size := p.Catalog[v].SizeBytes()
	dst, dstFree := -1, int64(0)
	for s := 0; s < c.Servers(); s++ {
		if !c.Eligible(s) || s == src {
			continue
		}
		if holds(c, v, s) {
			continue
		}
		if r.storageFree(s) < size-1e-6 {
			continue
		}
		if free := c.Free(s); dst == -1 || free > dstFree {
			dst, dstFree = s, free
		}
	}
	if dst == -1 {
		return false
	}

	rate := int64(math.Ceil(r.cfg.CopyRate))
	r.mu.Lock()
	if r.cfg.Budget > 0 && r.inflightRate+r.cfg.CopyRate > r.cfg.Budget+1e-6 {
		r.mu.Unlock()
		return false
	}
	r.mu.Unlock()

	overBackbone := p.BackboneBandwidth > 0
	if overBackbone {
		if !c.TryReserveBackbone(rate) {
			return false
		}
	} else if !c.TryReserveBandwidth(src, rate) {
		return false
	}

	r.mu.Lock()
	r.inflight[v] = true
	r.inflightRate += r.cfg.CopyRate
	if r.inflightRate > r.peakRate {
		r.peakRate = r.inflightRate
	}
	r.mu.Unlock()
	r.started.Add(1)
	r.log(RepairAction{TimeNS: r.s.tracer.NowNS(), Action: "start", Video: v, Src: src, Dst: dst})
	r.s.tracer.Record(obs.Event{TS: r.s.tracer.NowNS(), Kind: obs.KindRepair,
		Video: v, Server: dst, Detail: fmt.Sprintf("copy from %d", src)})

	wall := time.Duration(size * 8 / r.cfg.CopyRate / r.s.compress * float64(time.Second))
	r.copies.Add(1)
	go func() {
		defer r.copies.Done()
		t := time.NewTimer(wall)
		finished := false
		select {
		case <-t.C:
			finished = true
		case <-r.stop:
			t.Stop()
		}
		if overBackbone {
			c.ReleaseBackbone(rate)
		} else {
			c.ReleaseBandwidth(src, rate)
		}
		r.mu.Lock()
		delete(r.inflight, v)
		r.inflightRate -= r.cfg.CopyRate
		r.mu.Unlock()
		r.settleCopy(v, src, dst, finished)
	}()
	return true
}

// settleCopy lands or aborts one finished transfer. The source dying
// mid-copy drops the unfinished copy (the faithful outcome, mirroring the
// sim); the destination dying makes the landed bytes unreachable, so the
// copy is dropped too.
func (r *Repairer) settleCopy(v, src, dst int, finished bool) {
	c := r.s.Cluster()
	abort := func(detail string) {
		r.aborted.Add(1)
		r.log(RepairAction{TimeNS: r.s.tracer.NowNS(), Action: "abort", Video: v, Src: src, Dst: dst, Detail: detail})
		r.s.tracer.Record(obs.Event{TS: r.s.tracer.NowNS(), Kind: obs.KindRepair,
			Video: v, Server: dst, Detail: "abort: " + detail})
	}
	switch {
	case !finished:
		abort("shutdown")
	case c.State(src) == BackendDown:
		abort("source died mid-copy")
	case c.State(dst) == BackendDown:
		abort("destination died mid-copy")
	case !r.s.landRepair(v, dst):
		abort("destination already holds a replica")
	default:
		r.completed.Add(1)
		r.s.met.ReReplicated()
		r.log(RepairAction{TimeNS: r.s.tracer.NowNS(), Action: "complete", Video: v, Src: src, Dst: dst})
		r.s.tracer.Record(obs.Event{TS: r.s.tracer.NowNS(), Kind: obs.KindRepair,
			Video: v, Server: dst, Detail: "replica restored"})
	}
}

// log appends one journal entry, trimming the oldest half at the cap.
func (r *Repairer) log(a RepairAction) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.journal) >= maxJournal {
		r.journal = append(r.journal[:0], r.journal[maxJournal/2:]...)
	}
	r.journal = append(r.journal, a)
}

// holds reports whether server s currently holds a replica of v.
func holds(c *Cluster, v, s int) bool {
	for _, h := range c.Holders(v) {
		if h == s {
			return true
		}
	}
	return false
}
