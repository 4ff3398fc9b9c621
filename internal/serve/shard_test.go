package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vodcluster/internal/core"
)

// shardProblem: 8 videos on 8 servers, 4 Mb/s streams on 20 Mb/s links —
// 5 concurrent streams per backend — big enough that Config{Shards: 4}
// yields four two-server shards with every video's replica pair split
// across two different shards.
func shardProblem(t testing.TB) *core.Problem { return shardProblemBackbone(t, 0) }

// shardProblemBackbone is shardProblem with backbone bandwidth bps.
func shardProblemBackbone(t testing.TB, bps float64) *core.Problem {
	t.Helper()
	cat := make(core.Catalog, 8)
	for i := range cat {
		cat[i] = core.Video{ID: i, Popularity: 1.0 / 8, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute}
	}
	p := &core.Problem{
		Catalog:            cat,
		NumServers:         8,
		StoragePerServer:   6 * cat[0].SizeBytes(), // slack for landed copies
		BandwidthPerServer: 20 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
		BackboneBandwidth:  bps,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// shardLayout places video v on servers v and (v+4) mod 8: with four shards
// of two servers each, the two replicas always live in different shards, so
// every failover and every least-loaded tie crosses a shard boundary.
func shardLayout(t testing.TB) *core.Layout {
	t.Helper()
	l := core.NewLayout(8)
	l.Replicas = make([]int, 8)
	for v := 0; v < 8; v++ {
		l.Replicas[v] = 2
		for _, s := range []int{v % 8, (v + 4) % 8} {
			if err := l.Place(v, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l
}

func newShardedServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(shardProblem(t), shardLayout(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

// assertNoLeaks fails when any backend still carries bandwidth or stream
// accounting after every session has been settled.
func assertNoLeaks(t *testing.T, srv *Server) {
	t.Helper()
	c := srv.Cluster()
	for b := 0; b < c.Servers(); b++ {
		if u := c.Used(b); u != 0 {
			t.Errorf("server %d leaks %d bit/s after settlement", b, u)
		}
		if a := c.Active(b); a != 0 {
			t.Errorf("server %d leaks %d active streams after settlement", b, a)
		}
	}
	if a := srv.Active(); a != 0 {
		t.Errorf("Active() = %d after settlement, want 0", a)
	}
}

func TestShardedConfigResolution(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})
	if srv.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", srv.Shards())
	}
	if got := srv.PolicyName(); got != "least-loaded" {
		t.Fatalf("PolicyName() = %q, want least-loaded", got)
	}

	for _, shards := range []int{-1, 0, 1} {
		one := newShardedServer(t, Config{Shards: shards})
		if one.Shards() != 1 {
			t.Fatalf("Shards: %d must run a one-shard engine, got %d shards", shards, one.Shards())
		}
		if sh := one.eng.shards[0]; sh.lo != 0 || sh.hi != 8 {
			t.Fatalf("Shards: %d: the one shard owns [%d, %d), want [0, 8)", shards, sh.lo, sh.hi)
		}
	}

	clamped := newShardedServer(t, Config{Shards: 100})
	if clamped.Shards() != 8 {
		t.Fatalf("Shards: 100 on 8 servers clamped to %d, want 8", clamped.Shards())
	}
}

// TestShardedRejectsUnsupportedConfigs: unknown names, and bare random
// (which has only a sim: form), are refused at every shard count; a
// backbone problem is accepted, and only the sim: forms redirect on it.
func TestShardedRejectsUnsupportedConfigs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, name := range []string{"no-such-policy", "random", "sim:no-such-policy"} {
			if _, err := New(shardProblem(t), shardLayout(t), Config{Shards: shards, Policy: name}); err == nil {
				t.Fatalf("shards %d accepted policy %q", shards, name)
			}
		}
		for name, want := range map[string]string{
			"least-loaded":     "least-loaded",
			"sim:least-loaded": "sim:least-loaded+redirect",
			"sim:random":       "sim:random+redirect",
		} {
			if got := newShardedServer(t, Config{Shards: shards, Policy: name}).PolicyName(); got != name {
				t.Errorf("shards %d: PolicyName() = %q without a backbone, want %q", shards, got, name)
			}
			bb, err := New(shardProblemBackbone(t, 100*core.Mbps), shardLayout(t), Config{Shards: shards, Policy: name})
			if err != nil {
				t.Fatalf("shards %d, policy %q on a backbone problem: %v", shards, name, err)
			}
			if got := bb.PolicyName(); got != want {
				t.Errorf("shards %d: PolicyName() = %q on a backbone problem, want %q", shards, got, want)
			}
			bb.Shutdown()
		}
	}
}

// TestShardedAdmitSaturateAndClose: sharded admission fills video 0's two
// replicas to their link capacity (5 streams each), rejects the next
// request, and returns the accounting to zero when every session closes.
func TestShardedAdmitSaturateAndClose(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4}) // real time: sessions outlive the test
	var ids []int64
	for {
		info, outcome, err := srv.Open(0)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != OutcomeAccepted {
			break
		}
		ids = append(ids, info.ID)
	}
	if len(ids) != 10 {
		t.Fatalf("admitted %d sessions of video 0, want 10 (2 replicas × 5 slots)", len(ids))
	}
	if got := srv.Active(); got != 10 {
		t.Fatalf("Active() = %d, want 10", got)
	}
	for _, id := range ids {
		if !srv.Close(id) {
			t.Fatalf("Close(%d) found no session", id)
		}
	}
	for _, id := range ids {
		if srv.Close(id) {
			t.Fatalf("Close(%d) settled twice", id)
		}
	}
	assertNoLeaks(t, srv)
}

// TestShardedExpiryAndDrain: with aggressive time compression the per-shard
// expiry heap settles sessions at their natural deadlines, and Drain returns
// once the registry is empty.
func TestShardedExpiryAndDrain(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4, Compress: 1e5}) // 5400s video ≈ 54ms wall
	var ids []int64
	for v := 0; v < 8; v++ {
		info, outcome, err := srv.Open(v)
		if err != nil || outcome != OutcomeAccepted {
			t.Fatalf("open video %d: outcome %v err %v", v, outcome, err)
		}
		ids = append(ids, info.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		if srv.Close(id) {
			t.Fatalf("session %d still registered after its natural expiry", id)
		}
	}
	assertNoLeaks(t, srv)
}

// TestShardedAdmissionsRaceRebalance is the shard-boundary race drill the CI
// race job runs: admissions and closes race rebalancer LandReplica /
// EvictReplica calls targeting servers in every shard. The invariants: no
// operation deadlocks, a video never loses its last replica, pinned replicas
// survive, and after all sessions settle the accounting is exactly zero.
func TestShardedAdmissionsRaceRebalance(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})
	const workers = 8
	var stop atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var open []int64
			v := w % 8
			for !stop.Load() {
				info, outcome, err := srv.Open(v)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if outcome == OutcomeAccepted {
					open = append(open, info.ID)
				}
				if len(open) > 3 {
					srv.Close(open[0])
					open = open[1:]
				}
				v = (v + 1) % 8
			}
			for _, id := range open {
				srv.Close(id)
			}
		}(w)
	}

	// The rebalancer thread lands a third replica and evicts it again, on a
	// server two shards away from the video's birth replicas.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			v := i % 8
			b := (v + 2) % 8
			if err := srv.LandReplica(v, b); err != nil {
				continue // already holds it from a prior round: evict below
			}
			for srv.EvictReplica(v, b) == ErrReplicaPinned && !stop.Load() {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	c := srv.Cluster()
	for v := 0; v < 8; v++ {
		if n := len(c.Holders(v)); n < 2 {
			t.Errorf("video %d ended with %d replicas, want ≥ 2", v, n)
		}
	}
	assertNoLeaks(t, srv)
}

// TestShardedWholeShardDrain drains both servers of shard 0 while admissions
// race from other goroutines: every session on the drained shard must fail
// over to its cross-shard replica or be dropped, the drained servers must end
// with zero accounting, and new admissions must keep flowing to the live
// shards throughout.
func TestShardedWholeShardDrain(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})
	c := srv.Cluster()

	// Pin sessions onto shard 0's servers (0 and 1) by saturating their
	// videos: v0/v4 hold replicas on server 0, v1/v5 on server 1.
	var ids []int64
	for _, v := range []int{0, 4, 1, 5} {
		for i := 0; i < 3; i++ {
			info, outcome, err := srv.Open(v)
			if err != nil || outcome != OutcomeAccepted {
				t.Fatalf("open video %d: outcome %v err %v", v, outcome, err)
			}
			ids = append(ids, info.ID)
		}
	}
	before := srv.Active()

	// Workers on videos 4 and 5 can land sessions on the drained servers,
	// and the drain may drop those too. Sessions live for real-time hours,
	// so a worker's Close that finds nothing marks one the drain dropped.
	var stop atomic.Bool
	var workerDropped atomic.Int64
	var wg sync.WaitGroup
	closeWorker := func(id int64) {
		if !srv.Close(id) {
			workerDropped.Add(1)
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var open []int64
			for !stop.Load() {
				info, outcome, err := srv.Open((w + 2) % 8)
				if err != nil {
					t.Errorf("open during drain: %v", err)
					return
				}
				if outcome == OutcomeAccepted {
					open = append(open, info.ID)
				}
				if len(open) > 2 {
					closeWorker(open[0])
					open = open[1:]
				}
			}
			for _, id := range open {
				closeWorker(id)
			}
		}(w)
	}

	totalFailed, totalDropped := 0, 0
	for _, b := range []int{0, 1} {
		fo, dr, err := srv.DrainBackend(b)
		if err != nil {
			t.Fatalf("drain backend %d: %v", b, err)
		}
		totalFailed += fo
		totalDropped += dr
	}
	stop.Store(true)
	wg.Wait()

	if got := c.Used(0) + c.Used(1); got != 0 {
		t.Errorf("drained shard still carries %d bit/s", got)
	}
	if totalFailed+totalDropped == 0 {
		t.Error("draining a loaded shard moved nothing")
	}
	pinnedDropped := int64(totalDropped) - workerDropped.Load()
	if got := srv.Active(); got != before-pinnedDropped {
		t.Errorf("Active() = %d after drain, want %d - %d dropped (%d dropped in all, %d of them worker sessions)",
			got, before, pinnedDropped, totalDropped, workerDropped.Load())
	}
	for _, id := range ids {
		srv.Close(id)
	}
	assertNoLeaks(t, srv)
}

// TestShardedCrossShardFailover crashes a backend while admissions race: the
// eviction scan collects sessions from every shard registry, fails them over
// across shard boundaries, and the survivors stay closable exactly once.
func TestShardedCrossShardFailover(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var open []int64
			for !stop.Load() {
				info, outcome, err := srv.Open(w % 8)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if outcome == OutcomeAccepted {
					open = append(open, info.ID)
				}
				if len(open) > 4 {
					if srv.Close(open[0]) {
						open = open[1:]
					} else {
						t.Error("Close lost a session the evict scan should have settled")
						return
					}
				}
			}
			for _, id := range open {
				srv.Close(id)
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	if _, _, err := srv.FailBackend(3); err != nil {
		t.Fatalf("fail backend 3: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := srv.RecoverBackend(3); err != nil {
		t.Fatalf("recover backend 3: %v", err)
	}
	if err := srv.RestoreBackend(3); err != nil {
		t.Fatalf("restore backend 3: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	assertNoLeaks(t, srv)
}

// TestShardedSnapshotVerify runs the sim: form of least-loaded — the
// snapshot-and-verify protocol — under racing admissions and rebalance
// landings. Version conflicts must only ever retry the decision: every
// admission settles exactly once and nothing oversubscribes.
func TestShardedSnapshotVerify(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4, Policy: "sim:least-loaded"})
	if got := srv.PolicyName(); got != "sim:least-loaded" {
		t.Fatalf("PolicyName() = %q, want sim:least-loaded", got)
	}
	c := srv.Cluster()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var open []int64
			for !stop.Load() {
				info, outcome, err := srv.Open(w % 8)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if outcome == OutcomeAccepted {
					open = append(open, info.ID)
					if c.Used(info.Server) > c.Capacity(info.Server) {
						t.Errorf("server %d oversubscribed", info.Server)
					}
				}
				if len(open) > 3 {
					srv.Close(open[0])
					open = open[1:]
				}
			}
			for _, id := range open {
				srv.Close(id)
			}
		}(w)
	}
	// Concurrent directory churn bumps shard versions, forcing conflicts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			v, b := i%8, (i+3)%8
			if err := srv.LandReplica(v, b); err == nil {
				for srv.EvictReplica(v, b) == ErrReplicaPinned && !stop.Load() {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	t.Logf("snapshot conflicts retried: %d", srv.Metrics().SnapshotConflicts())
	assertNoLeaks(t, srv)
}

// TestShardedRepairLanding routes a repair-style landing through the shard
// owner: the first copy publishes, the duplicate is refused.
func TestShardedRepairLanding(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})
	if !srv.landRepair(0, 2) {
		t.Fatal("repair landing of a new replica refused")
	}
	if srv.landRepair(0, 2) {
		t.Fatal("duplicate repair landing accepted")
	}
	if !holds(srv.Cluster(), 0, 2) {
		t.Fatal("landed repair copy missing from the directory")
	}
}

// TestShardedExpiryHeapBounded opens and closes many long-lived sessions on
// one shard: every close leaves a stale expiry entry behind, and the owner
// must compact them away instead of keeping one per closed session until
// its natural deadline.
func TestShardedExpiryHeapBounded(t *testing.T) {
	srv, err := New(shardProblem(t), shardLayout(t), Config{}) // real time: 90-minute sessions
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 * expiryFloor
	for i := 0; i < n; i++ {
		info, outcome, err := srv.Open(i % 8)
		if err != nil || outcome != OutcomeAccepted {
			t.Fatalf("open %d: outcome %v err %v", i, outcome, err)
		}
		if !srv.Close(info.ID) {
			t.Fatalf("close %d found no session", i)
		}
	}
	srv.Shutdown() // the owner has exited: its heap is safe to read
	// The owner compacts past 4·live + expiryFloor entries, and at most one
	// session is live whenever it looks.
	if got, bound := len(srv.eng.shards[0].exp), 4+expiryFloor; got > bound {
		t.Fatalf("expiry heap holds %d entries after %d open/close pairs with no live session, want ≤ %d",
			got, n, bound)
	}
	assertNoLeaks(t, srv)
}
