package serve

// The dispatch engine (DESIGN.md §15): Config.Shards partitions the
// cluster's servers into contiguous groups — one group when Shards ≤ 1 —
// each owned by one dispatcher goroutine. An owner drains its mailbox in
// batches — every wakeup takes the whole accumulated batch, so under load the
// channel/wakeup cost amortizes over many admissions — and is the only
// goroutine that commits admissions onto its servers, so same-server
// admissions never contend on the CAS loop and directory changes
// (rebalance/repair landings, evictions) serialize with the admission stream
// by construction. Session lifetime is tracked with a per-shard expiry heap
// and one timer, and session/op objects are pooled, so an admission
// allocates nothing in steady state.
//
// The sim:* policies run on a snapshot-and-verify protocol: the dispatcher
// reads each shard's version counter, ranks candidates against the
// lock-free gauges, and submits the decision with the expected version; the
// owner rejects the commit when the shard's state moved in between (a
// conflict), and the dispatcher re-decides against a fresh snapshot. After
// maxSnapshotRetries conflicts the request degrades to the unverified path —
// owners still re-check capacity, so the protocol bounds decision staleness
// without risking livelock. On a problem with backbone bandwidth they add
// redirect.Scheduler's fallback (redirectTarget).

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vodcluster/internal/obs"
	"vodcluster/internal/policy"
)

// maxSnapshotRetries bounds how many times a snapshot-verified admission
// re-decides after a version conflict before degrading to the unverified
// path. Conflicts are counted in vod_snapshot_conflicts_total either way.
const maxSnapshotRetries = 8

// expiryFloor is the expiry-heap length below which the owner never
// compacts; above it, entries of settled sessions are dropped once the heap
// outgrows four times the shard's live registry.
const expiryFloor = 4096

// errShardStopped reports an operation submitted to a dispatcher that has
// already shut down; callers surface it as a draining outcome.
var errShardStopped = errors.New("serve: dispatch shard stopped")

// engine is the dispatch runtime: the shard set, the server→shard map, the
// candidate ranker of the configured policy, and the object pools the hot
// path draws from.
type engine struct {
	s        *Server
	rk       ranker
	name     string // policy name reported by /metrics and /layout
	verify   bool   // snapshot-and-verify commits (sim:* policies)
	redirect bool   // backbone redirection fallback (sim:* with a backbone)

	shards  []*shard
	shardOf []int // server index -> owning shard index

	opPool      sync.Pool // *shardOp
	sessPool    sync.Pool // *session
	scratchPool sync.Pool // *rankScratch
}

// shard owns a contiguous server range [lo, hi): its dispatcher goroutine is
// the only committer of admissions onto those servers, and its registry
// holds every session whose id was allocated here (id mod len(shards) ==
// idx), wherever the session's grant lives after failovers.
type shard struct {
	eng     *engine
	idx     int
	lo, hi  int
	version atomic.Int64 // bumped on every accounting or directory commit here

	// mailbox: an unbounded slice guarded by a mutex plus a 1-slot wakeup
	// channel, so cross-shard submissions never block however deep the
	// backlog — which is what keeps owner→owner operations deadlock-free.
	mbMu   sync.Mutex
	mb     []*shardOp
	dead   bool // set under mbMu when the owner exits; submissions fail fast
	notify chan struct{}

	// registry of birth-shard sessions. The owner is the main writer, but
	// eviction scans and Close touch entries from other goroutines, so a
	// shard-local mutex guards it; presence in the map is the settlement
	// token — whoever removes an entry owns ending that session — and an
	// eviction scan swaps a failed-over grant in place under the same lock.
	regMu sync.Mutex
	reg   map[int64]*session

	nextID int64      // owner-only id allocator; ids are nextID*nshards+idx
	exp    expiryHeap // owner-only session-deadline heap
	done   chan struct{}
}

// opKind selects what a shardOp asks the owner to do.
type opKind uint8

const (
	opAdmit  opKind = iota // reserve + register one session on an owned server
	opLand                 // rebalance migration: publish a replica
	opEvict                // rebalance eviction: remove a replica
	opRepair               // repair landing: publish a replica, no migration count
)

// shardOp is one pooled mailbox message; the owner signals its 1-buffered
// done channel exactly once.
type shardOp struct {
	kind   opKind
	video  int
	server int
	source int // replica feeding an admission; != server for a redirect
	rate   int64
	verify int64 // expected shard version; -1 disables the snapshot check

	info     SessionInfo
	ok       bool
	conflict bool
	err      error
	done     chan struct{}
}

// rankScratch is the pooled per-request working set of one admission:
// candidate and free-bandwidth slices for the ranker plus the shard-version
// snapshot, so ranking allocates nothing once the pool is warm.
type rankScratch struct {
	cands []int
	frees []int64
	vers  []int64
}

// ranker orders the admission candidates for one request — the lock-free
// decision half of a policy, decoupled from the commit so the dispatcher can
// verify and reserve at the owning shard.
type ranker interface {
	// rank writes video v's candidate servers into sc.cands, most preferred
	// first. Owners re-check eligibility and capacity at commit time, so a
	// ranker's filtering is an optimization, not a safety requirement.
	rank(c *Cluster, v int, rate int64, sc *rankScratch) []int
}

// llRanker is least-loaded: eligible holders with room for the stream, most
// free outgoing bandwidth first (ties to the lower index). Failover walks
// the same ordering.
type llRanker struct{}

func (llRanker) rank(c *Cluster, v int, rate int64, sc *rankScratch) []int {
	out, frees := sc.cands[:0], sc.frees[:0]
	for _, s := range c.Holders(v) {
		if c.Draining(s) {
			continue
		}
		f := c.Free(s)
		if f < rate {
			continue
		}
		// Insertion keeps frees descending; holders iterate in ascending
		// server order and ties don't displace, so equal-free candidates
		// stay ordered by index.
		i := len(out)
		out = append(out, 0)
		frees = append(frees, 0)
		for i > 0 && frees[i-1] < f {
			out[i], frees[i] = out[i-1], frees[i-1]
			i--
		}
		out[i], frees[i] = s, f
	}
	sc.cands, sc.frees = out, frees
	return out
}

// rotRanker is static-rr (§3.2) and first-available: a per-video atomic
// cursor advances exactly once per request, accepted or not; probe widens
// the candidate list from the designated holder to the whole rotation.
type rotRanker struct {
	cursor []atomic.Int64
	probe  bool
}

func (r *rotRanker) rank(c *Cluster, v int, rate int64, sc *rankScratch) []int {
	hs := c.Holders(v)
	out := sc.cands[:0]
	if len(hs) == 0 {
		sc.cands = out
		return out
	}
	k := int((r.cursor[v].Add(1) - 1) % int64(len(hs)))
	n := 1
	if r.probe {
		n = len(hs)
	}
	for i := 0; i < n; i++ {
		out = append(out, hs[(k+i)%len(hs)])
	}
	sc.cands = out
	return out
}

// randRanker is sim:random: one uniformly random eligible holder with room
// for the stream.
type randRanker struct{}

func (randRanker) rank(c *Cluster, v int, rate int64, sc *rankScratch) []int {
	out := sc.cands[:0]
	for _, s := range c.Holders(v) {
		if !c.Draining(s) && c.Free(s) >= rate {
			out = append(out, s)
		}
	}
	sc.cands = out
	if len(out) > 1 {
		out[0] = out[rand.IntN(len(out))]
		out = out[:1]
	}
	return out
}

// redirectTarget is redirect.Scheduler's fallback for a request whose ranked
// holders all refused: a holder with room serves it directly; otherwise the
// eligible server with the most free outgoing bandwidth (ties to the highest
// index) proxies the stream over the backbone from the first holder. It
// returns server -1 when the backbone lacks room, the first holder is
// draining or down (the simulator refuses a redirect whose source is not
// up, and a drain must not see new sessions pin its copy), or no server can
// proxy.
func redirectTarget(c *Cluster, v int, rate int64) (server, source int) {
	hs := c.Holders(v)
	if len(hs) == 0 || c.backboneCap-c.BackboneUsed() < rate {
		return -1, -1
	}
	for _, s := range hs {
		if !c.Draining(s) && c.Free(s) >= rate {
			return s, s
		}
	}
	if c.Draining(hs[0]) {
		return -1, -1
	}
	proxy, best := -1, rate
	for s := 0; s < c.Servers(); s++ {
		if f := c.Free(s); !c.Draining(s) && f >= best {
			proxy, best = s, f
		}
	}
	return proxy, hs[0]
}

// newEngine builds the dispatch runtime and starts one owner goroutine per
// shard. The policy name resolves to a ranker: the three lock-free policies
// run unverified, their sim: forms (and sim:random) run with
// snapshot-and-verify commits, plus the redirect fallback when the problem
// defines backbone bandwidth.
func newEngine(s *Server, nshard int, polName string) (*engine, error) {
	c := s.c
	base, sim := strings.CutPrefix(polName, "sim:")
	if sim {
		e, err := policy.Lookup(base)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		base = e.Name
	}
	var rk ranker
	switch base {
	case "", "least-loaded":
		rk, base = llRanker{}, "least-loaded"
	case "static-rr":
		rk = &rotRanker{cursor: make([]atomic.Int64, c.Videos())}
	case "first-available":
		rk = &rotRanker{cursor: make([]atomic.Int64, c.Videos()), probe: true}
	case "random":
		if !sim {
			return nil, policy.UnknownServeError(polName)
		}
		rk = randRanker{}
	default:
		if sim {
			return nil, fmt.Errorf("serve: policy %q has no dispatch ranker", polName)
		}
		return nil, policy.UnknownServeError(polName)
	}
	name := base
	redirect := sim && c.Problem().BackboneBandwidth > 0
	if sim {
		name = "sim:" + base
	}
	if redirect {
		name += "+redirect"
	}
	n := c.Servers()
	nshard = max(1, min(nshard, n))
	eng := &engine{s: s, rk: rk, name: name, verify: sim, redirect: redirect, shardOf: make([]int, n)}
	for i := 0; i < nshard; i++ {
		sh := &shard{
			eng: eng, idx: i,
			lo: i * n / nshard, hi: (i + 1) * n / nshard,
			notify: make(chan struct{}, 1),
			reg:    make(map[int64]*session),
			done:   make(chan struct{}),
		}
		for b := sh.lo; b < sh.hi; b++ {
			eng.shardOf[b] = i
		}
		eng.shards = append(eng.shards, sh)
	}
	for _, sh := range eng.shards {
		go sh.run()
	}
	s.met.SetShards(nshard)
	return eng, nil
}

// Shards reports how many admission shards the daemon dispatches through.
func (s *Server) Shards() int { return len(s.eng.shards) }

// --- pools ---

func (e *engine) getOp() *shardOp {
	if v := e.opPool.Get(); v != nil {
		op := v.(*shardOp)
		*op = shardOp{done: op.done}
		return op
	}
	return &shardOp{done: make(chan struct{}, 1)}
}

func (e *engine) putOp(op *shardOp) { e.opPool.Put(op) }

func (e *engine) getSession() *session {
	if v := e.sessPool.Get(); v != nil {
		return v.(*session)
	}
	return new(session)
}

func (e *engine) putSession(sess *session) {
	*sess = session{}
	e.sessPool.Put(sess)
}

func (e *engine) getScratch() *rankScratch {
	if v := e.scratchPool.Get(); v != nil {
		return v.(*rankScratch)
	}
	return &rankScratch{}
}

func (e *engine) putScratch(sc *rankScratch) { e.scratchPool.Put(sc) }

// birth returns the shard whose registry holds session id.
func (e *engine) birth(id int64) *shard { return e.shards[int(id%int64(len(e.shards)))] }

// --- accounting (version-stamped) ---

// reserve charges one stream onto server b and stamps the owning shard's
// version so snapshot readers observe the commit.
func (e *engine) reserve(b int, rate int64) bool {
	if !e.s.c.TryReserve(b, rate) {
		return false
	}
	e.shards[e.shardOf[b]].version.Add(1)
	return true
}

// release returns a grant's bandwidth. Releases are plain atomic adds, so
// any goroutine may settle a session without routing through the owner; the
// version stamp keeps snapshot readers honest.
func (e *engine) release(g Grant) {
	e.s.c.Release(g.Server, g.Rate)
	e.shards[e.shardOf[g.Server]].version.Add(1)
	if g.Redirected {
		e.s.c.ReleaseBackbone(g.Rate)
	}
}

// --- shard mailbox ---

// call enqueues op and waits for the owner to signal completion; a dead
// shard fails it immediately so callers never block on a stopped owner.
func (sh *shard) call(op *shardOp) {
	sh.mbMu.Lock()
	if sh.dead {
		sh.mbMu.Unlock()
		op.err = errShardStopped
		return
	}
	sh.mb = append(sh.mb, op)
	sh.mbMu.Unlock()
	select {
	case sh.notify <- struct{}{}:
	default:
	}
	<-op.done
}

// --- owner loop ---

// run is the shard dispatcher: wake on mail or the next session deadline,
// drain the whole accumulated batch, fire due expiries, re-arm the timer.
// The mailbox slice double-buffers with a spare: each drain swaps in the
// previous batch's (fully processed) backing array instead of handing the
// allocator a nil slice, so steady-state dispatch appends into warm memory.
func (sh *shard) run() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var spare []*shardOp
	for {
		select {
		case <-sh.eng.s.baseCtx.Done():
			sh.shutdown()
			return
		case <-sh.notify:
		case <-timer.C:
		}
		for {
			sh.mbMu.Lock()
			batch := sh.mb
			if len(batch) == 0 {
				sh.mbMu.Unlock()
				break
			}
			sh.mb = spare
			sh.mbMu.Unlock()
			for i, op := range batch {
				sh.exec(op)
				batch[i] = nil // drop the ref; ops recycle through the pool
			}
			spare = batch[:0]
		}
		sh.fireExpired()
		if len(sh.exp) > 0 {
			d := time.Until(sh.exp[0].at)
			if d < 0 {
				d = 0
			}
			timer.Reset(d)
		} else {
			timer.Reset(time.Hour)
		}
	}
}

func (sh *shard) exec(op *shardOp) {
	switch op.kind {
	case opAdmit:
		sh.execAdmit(op)
	case opLand:
		op.err = sh.execLand(op)
	case opEvict:
		op.err = sh.execEvict(op)
	case opRepair:
		op.ok = sh.execRepair(op)
	}
	op.done <- struct{}{}
}

// execAdmit commits one admission onto an owned server: verify the snapshot
// version (when asked), reserve the outgoing link (and the backbone for a
// redirect, rolling the link back when the backbone is full), register a
// pooled session, arm its expiry. A redirect's source replica lives on
// another shard, so no version check covers it: after registering, the
// owner re-checks that the copy still exists and its server is in service,
// and withdraws the session when not. An eviction re-checks pinned sessions
// after removing a copy and a drain scans the registries after leaving
// service, so one side always sees the other.
func (sh *shard) execAdmit(op *shardOp) {
	e := sh.eng
	if op.verify >= 0 && sh.version.Load() != op.verify {
		op.conflict = true
		return
	}
	g := Grant{Video: op.video, Server: op.server, Source: op.source, Rate: op.rate,
		Redirected: op.source != op.server}
	if !e.reserve(g.Server, g.Rate) {
		return
	}
	s := e.s
	if g.Redirected && !s.c.TryReserveBackbone(g.Rate) {
		e.release(Grant{Server: g.Server, Rate: g.Rate})
		return
	}
	// Once registered the session belongs to whoever settles it, so
	// nothing below reads it back.
	sh.nextID++
	id := sh.nextID*int64(len(e.shards)) + int64(sh.idx)
	sess := e.getSession()
	sess.id, sess.video, sess.grant = id, op.video, g
	wall := s.wallDuration(op.video)
	s.activeN.Add(1)
	sh.regMu.Lock()
	sh.reg[id] = sess
	sh.regMu.Unlock()
	if g.Redirected && (!holds(s.c, op.video, g.Source) || s.c.Draining(g.Source)) && sh.withdraw(id, g) {
		op.conflict = op.verify >= 0 // re-decide against the new holder list
		return
	}
	sh.exp.push(expiry{at: time.Now().Add(wall), id: id})
	op.ok = true
	op.info = SessionInfo{
		ID: id, Video: op.video, Server: g.Server, Source: g.Source,
		RateBps: g.Rate, Redirected: g.Redirected, ExpiresInS: wall.Seconds(),
	}
}

// withdraw rolls back a just-registered session whose grant is still g. It
// reports false when an eviction scan already failed the session over or
// dropped it; the scan then owns its settlement.
func (sh *shard) withdraw(id int64, g Grant) bool {
	sh.regMu.Lock()
	sess, ok := sh.reg[id]
	if ok && sess.grant == g {
		delete(sh.reg, id)
	} else {
		ok = false
	}
	sh.regMu.Unlock()
	if !ok {
		return false
	}
	e := sh.eng
	e.s.activeN.Add(-1)
	e.release(g)
	e.putSession(sess)
	return true
}

// execLand is LandReplica's owner half: publish the migrated replica so the
// landing serializes with this shard's admission stream.
func (sh *shard) execLand(op *shardOp) error {
	s := sh.eng.s
	v, b := op.video, op.server
	if s.c.State(b) == BackendDown {
		return ErrBackendDown
	}
	if !s.c.AddHolder(v, b) {
		return fmt.Errorf("serve: backend %d already holds video %d", b, v)
	}
	sh.version.Add(1)
	s.met.Migrated()
	s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindRepair,
		Video: v, Server: b, Detail: "replica migrated in"})
	return nil
}

// execEvict is EvictReplica's owner half: exists → not last live copy → not
// pinned → remove → re-check. Owner serialization covers same-shard
// admissions; the post-removal re-check covers admissions and failover
// grants committed by other goroutines from the pre-removal holder list —
// those put the copy back and the caller retries after the sessions drain.
func (sh *shard) execEvict(op *shardOp) error {
	s := sh.eng.s
	v, b := op.video, op.server
	if !holds(s.c, v, b) {
		return ErrNoReplica
	}
	// At least one other holder must remain readable or the video would
	// become unservable (constraint Eq. 7 on the live directory).
	live := 0
	for _, h := range s.c.Holders(v) {
		if h != b && s.c.State(h) != BackendDown {
			live++
		}
	}
	if live == 0 {
		return ErrLastReplica
	}
	if s.PinnedSessions(v, b) > 0 {
		return ErrReplicaPinned
	}
	if !s.c.RemoveHolder(v, b) {
		return ErrLastReplica // lost a race that shrank the list to one
	}
	sh.version.Add(1)
	if s.PinnedSessions(v, b) > 0 {
		s.c.AddHolder(v, b)
		sh.version.Add(1)
		return ErrReplicaPinned
	}
	s.met.Evicted()
	s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindRepair,
		Video: v, Server: b, Detail: "replica evicted"})
	return nil
}

// execRepair is the repairer's settle half: publish the re-replicated copy.
// The caller (settleCopy) owns metrics and journaling.
func (sh *shard) execRepair(op *shardOp) bool {
	if !sh.eng.s.c.AddHolder(op.video, op.server) {
		return false
	}
	sh.version.Add(1)
	return true
}

// fireExpired settles every session whose deadline passed. Entries of
// sessions settled early (closed or dropped) find no registry entry and are
// skipped; once they outnumber the live registry the heap is compacted, so
// it stays proportional to the sessions the shard actually holds.
func (sh *shard) fireExpired() {
	now := time.Now()
	for len(sh.exp) > 0 && !sh.exp[0].at.After(now) {
		sh.settle(sh.exp.popMin().id, true)
	}
	if len(sh.exp) <= expiryFloor {
		return
	}
	sh.regMu.Lock()
	if len(sh.exp) > 4*len(sh.reg)+expiryFloor {
		live := sh.exp[:0]
		for _, x := range sh.exp {
			if _, ok := sh.reg[x.id]; ok {
				live = append(live, x)
			}
		}
		sh.exp = live
		sh.exp.heapify()
	}
	sh.regMu.Unlock()
}

// settle ends session id exactly once: registry removal is the settlement
// token, so an expiry firing, a client Close, an eviction scan, and the
// shutdown flush can all race and exactly one of them releases the grant.
func (sh *shard) settle(id int64, natural bool) bool {
	sh.regMu.Lock()
	sess, ok := sh.reg[id]
	if ok {
		delete(sh.reg, id)
	}
	sh.regMu.Unlock()
	if !ok {
		return false
	}
	e := sh.eng
	s := e.s
	g := sess.grant
	video := sess.video
	e.release(g)
	e.putSession(sess)
	if natural {
		s.met.Completed()
		s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindEnd,
			Session: id, Video: video, Server: g.Server})
	} else {
		s.met.Canceled()
		s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindTear,
			Session: id, Video: video, Server: g.Server, Detail: "canceled"})
	}
	// Last, so a reader that sees the session gone (Drain, a test) also
	// sees its bandwidth returned and its end counted.
	s.activeN.Add(-1)
	return true
}

// shutdown fails queued ops, settles every registered session as canceled,
// and signals done.
func (sh *shard) shutdown() {
	sh.mbMu.Lock()
	sh.dead = true
	batch := sh.mb
	sh.mb = nil
	sh.mbMu.Unlock()
	for _, op := range batch {
		op.err = errShardStopped
		op.done <- struct{}{}
	}
	sh.regMu.Lock()
	ids := make([]int64, 0, len(sh.reg))
	for id := range sh.reg {
		ids = append(ids, id)
	}
	sh.regMu.Unlock()
	for _, id := range ids {
		sh.settle(id, false)
	}
	close(sh.done)
}

// --- engine-level request paths ---

// commitResult is the owner's verdict on one submitted admission.
type commitResult uint8

const (
	refused    commitResult = iota // no capacity on the candidate
	accepted                       // reserved and registered
	conflicted                     // the snapshot version moved: re-decide
	stopped                        // the owner shut down: the daemon is draining
)

// commit submits one admission of v onto server b, fed from replica src, to
// b's owner and waits for its verdict.
func (e *engine) commit(sc *rankScratch, verify bool, v, b, src int, rate int64) (SessionInfo, commitResult) {
	sh := e.shards[e.shardOf[b]]
	op := e.getOp()
	op.kind, op.video, op.server, op.source, op.rate = opAdmit, v, b, src, rate
	op.verify = -1
	if verify {
		op.verify = sc.vers[sh.idx]
	}
	sh.call(op)
	info, res := op.info, refused
	switch {
	case op.err != nil:
		res = stopped
	case op.conflict:
		res = conflicted
	case op.ok:
		res = accepted
	}
	e.putOp(op)
	return info, res
}

// directory routes a replica landing, eviction, or repair landing through
// b's owner so it serializes with that shard's admission stream.
func (e *engine) directory(kind opKind, v, b int) (bool, error) {
	op := e.getOp()
	op.kind, op.video, op.server = kind, v, b
	e.shards[e.shardOf[b]].call(op)
	ok, err := op.ok, op.err
	e.putOp(op)
	return ok, err
}

// wait blocks until every shard owner has exited (after baseStop).
func (e *engine) wait() {
	for _, sh := range e.shards {
		<-sh.done
	}
}

// expiry is one deadline entry; entries are lazy — settlement consults the
// registry, so stale entries are no-ops.
type expiry struct {
	at time.Time
	id int64
}

// expiryHeap is a hand-rolled binary min-heap on the deadline. It
// deliberately does not implement container/heap: heap.Push takes its
// element through an interface value, which boxes the expiry struct onto the
// heap on every admission — one avoidable allocation on the owner's hot
// path. The sift loops below move value types only.
type expiryHeap []expiry

// push adds e and restores the heap order (sift up).
func (h *expiryHeap) push(e expiry) {
	*h = append(*h, e)
	hs := *h
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !hs[i].at.Before(hs[parent].at) {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
}

// popMin removes and returns the earliest entry. The caller checks len > 0
// first.
func (h *expiryHeap) popMin() expiry {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	hs[0] = hs[n]
	*h = hs[:n]
	h.down(0)
	return top
}

// heapify restores the heap order over arbitrary contents in place.
func (h expiryHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts entry i toward the leaves until both children are later.
func (h expiryHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].at.Before(h[min].at) {
			min = l
		}
		if r < n && h[r].at.Before(h[min].at) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
