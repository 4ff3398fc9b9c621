package serve

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/policy"
)

// testProblem: 3 videos, 2 servers, 10 Mb/s links, 4 Mb/s videos — each
// server carries at most 2 concurrent streams, the same micro-cluster the
// cluster package tests use so behaviors stay comparable.
func testProblem(t testing.TB, backbone float64) *core.Problem {
	t.Helper()
	c := core.Catalog{
		{ID: 0, Popularity: 0.5, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 1, Popularity: 0.3, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 2, Popularity: 0.2, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         2,
		StoragePerServer:   2 * c[0].SizeBytes(),
		BandwidthPerServer: 10 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
		BackboneBandwidth:  backbone,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// testLayout: v0 on both servers, v1 on s0 only, v2 on s1 only.
func testLayout(t testing.TB) *core.Layout {
	t.Helper()
	l := core.NewLayout(3)
	l.Replicas = []int{2, 1, 1}
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 0}, {2, 1}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func newTestCluster(t testing.TB, backbone float64) *Cluster {
	t.Helper()
	c, err := NewCluster(testProblem(t, backbone), testLayout(t))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTryReserveNeverOversubscribes is the CAS invariant under contention:
// many goroutines race for a 2-slot link and exactly 2 win; releasing
// returns the accounting to zero.
func TestTryReserveNeverOversubscribes(t *testing.T) {
	c := newTestCluster(t, 0)
	rate := c.Rate(0)
	const racers = 64
	var wg sync.WaitGroup
	wins := make(chan struct{}, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.TryReserve(0, rate) {
				wins <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(wins)
	won := 0
	for range wins {
		won++
	}
	if won != 2 {
		t.Fatalf("%d reservations won on a 2-slot link", won)
	}
	if got := c.Used(0); got != 2*rate {
		t.Fatalf("used = %d, want %d", got, 2*rate)
	}
	c.Release(0, rate)
	c.Release(0, rate)
	if got := c.Used(0); got != 0 {
		t.Fatalf("used = %d after full release, want 0", got)
	}
	if got := c.Active(0); got != 0 {
		t.Fatalf("active = %d after full release, want 0", got)
	}
}

// shardCounts are the engine sizes the policy tests drive: the default
// one-shard engine and a multi-shard one (clamped to the server count).
var shardCounts = []int{1, 4}

// TestPolicyAdmitUntilSaturated: every policy admits exactly the cluster's
// stream capacity for v0 (2 per holder), then rejects, recovers a slot on
// close, and returns the accounting to zero — at one shard and at four.
func TestPolicyAdmitUntilSaturated(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			for _, shards := range shardCounts {
				srv, err := New(testProblem(t, 0), testLayout(t), Config{Policy: name, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Shutdown()
				var ids []int64
				for i := 0; i < 4; i++ {
					info, outcome, err := srv.Open(0)
					if err != nil || outcome != OutcomeAccepted {
						t.Fatalf("shards %d: admission %d: outcome %q, err %v", shards, i, outcome, err)
					}
					ids = append(ids, info.ID)
				}
				if _, outcome, _ := srv.Open(0); outcome != OutcomeRejected {
					t.Fatalf("shards %d: admission beyond cluster capacity: %q", shards, outcome)
				}
				srv.Close(ids[0])
				// Static round-robin only tries the rotation's designated
				// holder, so the freed slot may take a full rotation to reach.
				accepted := false
				for i := 0; i < 2 && !accepted; i++ {
					info, outcome, _ := srv.Open(0)
					if accepted = outcome == OutcomeAccepted; accepted {
						ids[0] = info.ID
					}
				}
				if !accepted {
					t.Fatalf("shards %d: admission after close rejected for a full rotation", shards)
				}
				for _, id := range ids {
					if !srv.Close(id) {
						t.Fatalf("shards %d: close %d found no session", shards, id)
					}
				}
				assertNoLeaks(t, srv)
			}
		})
	}
	if _, err := New(testProblem(t, 0), testLayout(t), Config{Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestStaticRRMatchesSimPolicy: the lock-free static round-robin makes the
// same sequential accept/reject and placement decisions as its
// snapshot-verified sim: form.
func TestStaticRRMatchesSimPolicy(t *testing.T) {
	fast, err := New(testProblem(t, 0), testLayout(t), Config{Policy: "static-rr"})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Shutdown()
	slow, err := New(testProblem(t, 0), testLayout(t), Config{Policy: "sim:static-rr"})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Shutdown()
	videos := []int{0, 1, 0, 2, 0, 0, 1, 2, 0, 1, 2, 0}
	for i, v := range videos {
		fi, fo, _ := fast.Open(v)
		si, so, _ := slow.Open(v)
		if fo != so {
			t.Fatalf("request %d (video %d): lock-free %q, sim %q", i, v, fo, so)
		}
		if fo == OutcomeAccepted && fi.Server != si.Server {
			t.Fatalf("request %d (video %d): lock-free server %d, sim server %d", i, v, fi.Server, si.Server)
		}
	}
}

// TestSequentialParityWithClusterState serializes one seeded stream of opens
// and closes through the daemon and through cluster.State under the
// simulator's scheduler for the same name, and requires every request to
// make the same accept, server, source, and redirected decision. The sim:
// forms on a backbone problem run redirect.Scheduler's rule.
func TestSequentialParityWithClusterState(t *testing.T) {
	type scenario struct {
		name     string
		p        *core.Problem
		layout   *core.Layout
		policies []string
	}
	sharded := shardProblemBackbone(t, 12*core.Mbps) // three redirected streams
	scenarios := []scenario{
		{"micro", testProblem(t, 0), testLayout(t),
			[]string{"static-rr", "first-available", "least-loaded", "sim:static-rr", "sim:first-available", "sim:least-loaded"}},
		{"micro-backbone", testProblem(t, 8*core.Mbps), testLayout(t),
			[]string{"sim:static-rr", "sim:first-available", "sim:least-loaded"}},
		{"sharded-backbone", sharded, shardLayout(t),
			[]string{"sim:static-rr", "sim:first-available", "sim:least-loaded", "least-loaded"}},
	}
	for _, sc := range scenarios {
		for _, name := range sc.policies {
			for _, shards := range shardCounts {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", sc.name, name, shards), func(t *testing.T) {
					base, sim := strings.CutPrefix(name, "sim:")
					newSched, err := policy.SchedulerFactory(base, sim && sc.p.BackboneBandwidth > 0)
					if err != nil {
						t.Fatal(err)
					}
					sched := newSched()
					st, err := cluster.New(sc.p, sc.layout)
					if err != nil {
						t.Fatal(err)
					}
					srv, err := New(sc.p, sc.layout, Config{Policy: name, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Shutdown()
					rng := rand.New(rand.NewPCG(7, uint64(len(name))))
					type pair struct {
						live int64
						sim  cluster.StreamID
					}
					var open []pair
					redirected := 0
					for i := 0; i < 600; i++ {
						if len(open) > 0 && rng.IntN(3) == 0 {
							k := rng.IntN(len(open))
							if !srv.Close(open[k].live) {
								t.Fatalf("request %d: close of live session %d failed", i, open[k].live)
							}
							if err := st.Release(open[k].sim); err != nil {
								t.Fatal(err)
							}
							open = append(open[:k], open[k+1:]...)
							continue
						}
						v := rng.IntN(sc.p.M())
						info, outcome, err := srv.Open(v)
						if err != nil {
							t.Fatal(err)
						}
						id, ok := st.Admit(v, sched)
						if ok != (outcome == OutcomeAccepted) {
							t.Fatalf("request %d (video %d): live %q, sim accept=%v", i, v, outcome, ok)
						}
						if !ok {
							continue
						}
						want, _ := st.Lookup(id)
						if info.Server != want.Server || info.Source != want.Source || info.Redirected != want.Redirected {
							t.Fatalf("request %d (video %d): live server %d source %d redirected %v, sim %d %d %v",
								i, v, info.Server, info.Source, info.Redirected, want.Server, want.Source, want.Redirected)
						}
						if info.Redirected {
							redirected++
						}
						open = append(open, pair{info.ID, id})
					}
					if sim && sc.p.BackboneBandwidth > 0 && redirected == 0 {
						t.Error("no request was redirected over the backbone")
					}
					for _, o := range open {
						srv.Close(o.live)
					}
					assertNoLeaks(t, srv)
					if used := srv.Cluster().BackboneUsed(); used != 0 {
						t.Errorf("backbone leaks %d bit/s", used)
					}
				})
			}
		}
	}
}

// TestServerSessionLifecycle: open → natural expiry under compression
// releases the reservation and counts a completion.
func TestServerSessionLifecycle(t *testing.T) {
	// 5400 s video at 100000× compression ≈ 54 ms of wall time.
	srv, err := New(testProblem(t, 0), testLayout(t), Config{Compress: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	info, outcome, err := srv.Open(0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}
	if info.ExpiresInS <= 0 || info.ExpiresInS > 1 {
		t.Fatalf("expires_in_s = %g, want ≈0.054", info.ExpiresInS)
	}
	if srv.Active() != 1 {
		t.Fatalf("active = %d, want 1", srv.Active())
	}
	waitUntil(t, 2*time.Second, "session expiry", func() bool { return srv.Active() == 0 })
	if got := srv.Metrics().completed.Load(); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
	if got := srv.Cluster().Used(info.Server); got != 0 {
		t.Fatalf("server %d used = %d after expiry", info.Server, got)
	}
}

// TestServerClose: an early client close cancels the session exactly once.
func TestServerClose(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	info, outcome, err := srv.Open(0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}
	if !srv.Close(info.ID) {
		t.Fatal("close reported no such session")
	}
	waitUntil(t, 2*time.Second, "session teardown", func() bool { return srv.Active() == 0 })
	if srv.Close(info.ID) {
		t.Fatal("second close found the session again")
	}
	if got := srv.Metrics().canceled.Load(); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
	if got := srv.Cluster().Used(info.Server); got != 0 {
		t.Fatalf("used = %d after close", got)
	}
}

// TestOpenRejectsBadVideo: out-of-catalog ranks error without touching the
// admission counters.
func TestOpenRejectsBadVideo(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for _, v := range []int{-1, 3, 1 << 20} {
		if _, _, err := srv.Open(v); err == nil {
			t.Fatalf("video %d admitted", v)
		}
	}
	if got := srv.Metrics().badVideo.Load(); got != 3 {
		t.Fatalf("bad_video = %d, want 3", got)
	}
	if got := srv.Metrics().Requests(); got != 0 {
		t.Fatalf("requests = %d, want 0", got)
	}
}

// TestDrainBackendFailover: draining a backend moves its sessions to the
// surviving replica holder when capacity allows and drops them otherwise.
func TestDrainBackendFailover(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	info, outcome, err := srv.Open(0) // least-loaded tie → server 0
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}
	if info.Server != 0 {
		t.Fatalf("session landed on server %d, want 0", info.Server)
	}

	failedOver, dropped, err := srv.DrainBackend(0)
	if err != nil {
		t.Fatal(err)
	}
	if failedOver != 1 || dropped != 0 {
		t.Fatalf("drain: failedOver=%d dropped=%d, want 1,0", failedOver, dropped)
	}
	if got := srv.Cluster().Used(0); got != 0 {
		t.Fatalf("drained server still charged %d", got)
	}
	if got := srv.Cluster().Used(1); got != srv.Cluster().Rate(0) {
		t.Fatalf("survivor charged %d, want %d", got, srv.Cluster().Rate(0))
	}
	if srv.Active() != 1 {
		t.Fatalf("active = %d after failover, want 1", srv.Active())
	}

	// v1 lives only on the drained server: admission must now fail.
	if _, outcome, _ := srv.Open(1); outcome != OutcomeRejected {
		t.Fatalf("video on drained backend: outcome %q, want rejected", outcome)
	}

	// Draining the survivor leaves v0 nowhere to go: the session drops.
	failedOver, dropped, err = srv.DrainBackend(1)
	if err != nil {
		t.Fatal(err)
	}
	if failedOver != 0 || dropped != 1 {
		t.Fatalf("second drain: failedOver=%d dropped=%d, want 0,1", failedOver, dropped)
	}
	waitUntil(t, 2*time.Second, "dropped session teardown", func() bool { return srv.Active() == 0 })
	for s := 0; s < srv.Cluster().Servers(); s++ {
		if got := srv.Cluster().Used(s); got != 0 {
			t.Fatalf("server %d used = %d after drop", s, got)
		}
	}

	if err := srv.RestoreBackend(0); err != nil {
		t.Fatal(err)
	}
	if err := srv.RestoreBackend(1); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := srv.Open(1); err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open after restore: outcome %q, err %v", outcome, err)
	}
	if _, _, err := srv.DrainBackend(7); err == nil {
		t.Fatal("drain of nonexistent backend accepted")
	}
}

// TestDrainBackendSimPolicy: the snapshot-verified sim: form fails a
// drained backend's session over without leaking accounting, at one shard
// and at four.
func TestDrainBackendSimPolicy(t *testing.T) {
	for _, shards := range shardCounts {
		srv, err := New(testProblem(t, 0), testLayout(t), Config{Policy: "sim:least-loaded", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		if _, outcome, err := srv.Open(0); err != nil || outcome != OutcomeAccepted {
			t.Fatalf("shards %d: open: outcome %q, err %v", shards, outcome, err)
		}
		failedOver, dropped, err := srv.DrainBackend(0)
		if err != nil {
			t.Fatal(err)
		}
		if failedOver != 1 || dropped != 0 {
			t.Fatalf("shards %d: drain: failedOver=%d dropped=%d, want 1,0", shards, failedOver, dropped)
		}
		if got := srv.Cluster().Used(0); got != 0 {
			t.Fatalf("shards %d: drained server still charged %d", shards, got)
		}
		if got := srv.Cluster().Used(1); got != srv.Cluster().Rate(0) {
			t.Fatalf("shards %d: survivor charged %d, want %d", shards, got, srv.Cluster().Rate(0))
		}
	}
}

// TestDrainedSourceRefusesRedirect: once a video's first holder drains, a
// sim:+redirect request that no holder can serve directly is refused, as the
// simulator refuses a redirect whose source is not up, so no new session
// pins the drained copy.
func TestDrainedSourceRefusesRedirect(t *testing.T) {
	for _, shards := range shardCounts {
		srv, err := New(testProblem(t, 100*core.Mbps), testLayout(t), Config{Policy: "sim:least-loaded", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		if _, _, err := srv.DrainBackend(0); err != nil {
			t.Fatal(err)
		}
		// v1 lives only on s0; s1 has room to proxy it.
		if info, outcome, err := srv.Open(1); err != nil || outcome != OutcomeRejected {
			t.Fatalf("shards %d: open of v1 after draining s0: outcome %q, session %+v, err %v", shards, outcome, info, err)
		}
		if got := srv.PinnedSessions(1, 0); got != 0 {
			t.Fatalf("shards %d: %d sessions pin the drained copy", shards, got)
		}
		// Refused at decision time, not reserved and withdrawn at commit.
		if got := srv.Metrics().SnapshotConflicts(); got != 0 {
			t.Fatalf("shards %d: %d snapshot conflicts, want 0", shards, got)
		}
		if got := srv.Cluster().BackboneUsed(); got != 0 {
			t.Fatalf("shards %d: backbone used = %d, want 0", shards, got)
		}
	}
}

// TestRedirectCommitRechecksSource: a redirect decided before its source
// copy was evicted, or before the source's server drained, is withdrawn at
// commit instead of registering a session fed by a copy that is gone.
func TestRedirectCommitRechecksSource(t *testing.T) {
	for _, shards := range shardCounts {
		srv, err := New(testProblem(t, 100*core.Mbps), testLayout(t), Config{Policy: "sim:least-loaded", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		e, c := srv.eng, srv.Cluster()
		if err := srv.EvictReplica(0, 0); err != nil {
			t.Fatal(err)
		}
		sc := e.getScratch()
		// The stale decision: proxy v0 on s0 from s0's evicted copy, and v2
		// on s0 from s1's copy after s1 drained.
		if info, res := e.commit(sc, false, 0, 1, 0, c.Rate(0)); res != refused {
			t.Fatalf("shards %d: redirect from an evicted copy: result %d, session %+v", shards, res, info)
		}
		if _, _, err := srv.DrainBackend(1); err != nil {
			t.Fatal(err)
		}
		if info, res := e.commit(sc, false, 2, 0, 1, c.Rate(2)); res != refused {
			t.Fatalf("shards %d: redirect from a drained server: result %d, session %+v", shards, res, info)
		}
		e.putScratch(sc)
		if srv.Active() != 0 || c.BackboneUsed() != 0 || c.Used(0) != 0 || c.Used(1) != 0 {
			t.Fatalf("shards %d: leaked: active %d, backbone %d, used %d/%d",
				shards, srv.Active(), c.BackboneUsed(), c.Used(0), c.Used(1))
		}
	}
}

// TestServerDrainGraceful: daemon drain refuses new work, waits for active
// sessions, and a timed-out drain force-releases everything.
func TestServerDrainGraceful(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{Compress: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for i := 0; i < 2; i++ {
		if _, outcome, err := srv.Open(0); err != nil || outcome != OutcomeAccepted {
			t.Fatalf("open %d: outcome %q, err %v", i, outcome, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if srv.Active() != 0 {
		t.Fatalf("active = %d after drain", srv.Active())
	}
	if _, outcome, _ := srv.Open(0); outcome != OutcomeDraining {
		t.Fatalf("open during drain: outcome %q, want draining", outcome)
	}
	if got := srv.Metrics().draining.Load(); got != 1 {
		t.Fatalf("draining rejections = %d, want 1", got)
	}
}

func TestServerDrainTimeout(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{}) // real-time: sessions outlive the test
	if err != nil {
		t.Fatal(err)
	}
	info, outcome, err := srv.Open(0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("drain of an immortal session reported success")
	}
	if srv.Active() != 0 {
		t.Fatalf("active = %d after forced drain", srv.Active())
	}
	if got := srv.Cluster().Used(info.Server); got != 0 {
		t.Fatalf("used = %d after forced drain", got)
	}
}

// TestSimPolicyRedirect: with backbone bandwidth, the sim: form serves an
// exhausted video's requests over the backbone like the simulator's
// redirect scheduler, the backbone gauge tracks it, and a close returns it
// to zero — at one shard and at four.
func TestSimPolicyRedirect(t *testing.T) {
	for _, shards := range shardCounts {
		srv, err := New(testProblem(t, 100*core.Mbps), testLayout(t), Config{Policy: "sim:least-loaded", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		if name := srv.PolicyName(); name != "sim:least-loaded+redirect" {
			t.Fatalf("policy %q lacks redirect with a backbone", name)
		}
		// v1 lives only on s0 (2 slots). The third request must cross the
		// backbone to s1.
		for i := 0; i < 2; i++ {
			info, outcome, err := srv.Open(1)
			if err != nil || outcome != OutcomeAccepted || info.Redirected {
				t.Fatalf("shards %d: open %d: outcome %q, redirected=%v, err %v", shards, i, outcome, info.Redirected, err)
			}
		}
		info, outcome, err := srv.Open(1)
		if err != nil || outcome != OutcomeAccepted {
			t.Fatalf("shards %d: redirect open: outcome %q, err %v", shards, outcome, err)
		}
		if !info.Redirected || info.Server != 1 || info.Source != 0 {
			t.Fatalf("shards %d: third v1 session %+v, want redirected from 0 to 1", shards, info)
		}
		if got := srv.Cluster().BackboneUsed(); got != srv.Cluster().Rate(1) {
			t.Fatalf("shards %d: backbone used = %d, want %d", shards, got, srv.Cluster().Rate(1))
		}
		if got := srv.PinnedSessions(1, 0); got != 3 {
			t.Fatalf("shards %d: %d sessions pin v1's copy on s0, want 3 (one redirected)", shards, got)
		}
		if !srv.Close(info.ID) {
			t.Fatal("close failed")
		}
		if got := srv.Cluster().BackboneUsed(); got != 0 {
			t.Fatalf("shards %d: backbone used = %d after close, want 0", shards, got)
		}
	}
}

// TestConcurrentOpenCloseStress drives many concurrent admissions, closes,
// and natural expiries; afterwards every gauge must read zero — the
// accounting audit the race detector runs alongside.
func TestConcurrentOpenCloseStress(t *testing.T) {
	p := testProblem(t, 0)
	p.BandwidthPerServer = 400 * core.Mbps // 100 slots per server
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"least-loaded", "static-rr", "sim:first-available"} {
		t.Run(policy, func(t *testing.T) {
			srv, err := New(p, testLayout(t), Config{Policy: policy, Compress: 2e5})
			if err != nil {
				t.Fatal(err)
			}
			const workers, perWorker = 8, 40
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						info, outcome, err := srv.Open((w + i) % 3)
						if err != nil {
							t.Errorf("open: %v", err)
							return
						}
						if outcome == OutcomeAccepted && i%2 == 0 {
							srv.Close(info.ID)
						}
					}
				}(w)
			}
			wg.Wait()
			waitUntil(t, 5*time.Second, "all sessions to end", func() bool { return srv.Active() == 0 })
			for s := 0; s < srv.Cluster().Servers(); s++ {
				if got := srv.Cluster().Used(s); got != 0 {
					t.Fatalf("server %d used = %d after all sessions ended", s, got)
				}
				if got := srv.Cluster().Active(s); got != 0 {
					t.Fatalf("server %d active = %d after all sessions ended", s, got)
				}
			}
			m := srv.Metrics()
			if m.completed.Load()+m.canceled.Load() != m.accepted.Load() {
				t.Fatalf("ended %d+%d sessions, accepted %d",
					m.completed.Load(), m.canceled.Load(), m.accepted.Load())
			}
			srv.Shutdown()
		})
	}
}

// TestConcurrentAdmissionAgainstSequentialCapacity: under full contention
// the admitted count can never exceed what the sequential cluster.State
// would admit, and with closes disabled both sides admit exactly the
// cluster's stream capacity.
func TestConcurrentAdmissionAgainstSequentialCapacity(t *testing.T) {
	st, err := cluster.New(testProblem(t, 0), testLayout(t))
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for {
		if _, ok := st.Admit(0, cluster.LeastLoaded{}); !ok {
			break
		}
		seq++
	}
	for _, shards := range shardCounts {
		srv, err := New(testProblem(t, 0), testLayout(t), Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		var wg sync.WaitGroup
		var conc atomic.Int64
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, outcome, _ := srv.Open(0); outcome == OutcomeAccepted {
					conc.Add(1)
				}
			}()
		}
		wg.Wait()
		if int(conc.Load()) != seq {
			t.Fatalf("shards %d: concurrent daemon admitted %d, sequential state admits %d", shards, conc.Load(), seq)
		}
	}
}

func TestNewClusterRejectsInvalidLayout(t *testing.T) {
	p := testProblem(t, 0)
	if _, err := NewCluster(p, core.NewLayout(3)); err == nil {
		t.Fatal("layout with no placements accepted")
	}
}

func TestWallDurationCompression(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{Compress: 5400})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if got := srv.wallDuration(0); got != time.Second {
		t.Fatalf("wall duration = %s, want 1s", got)
	}
	capped, err := New(testProblem(t, 0), testLayout(t), Config{MaxSessionWall: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Shutdown()
	if got := capped.wallDuration(0); got != 100*time.Millisecond {
		t.Fatalf("capped wall duration = %s, want 100ms", got)
	}
	if _, err := New(testProblem(t, 0), testLayout(t), Config{Compress: -1}); err == nil {
		t.Fatal("negative compression accepted")
	}
}

// TestPolicyNamesResolve: every advertised name builds a Server at one
// shard and at four, with and without a backbone.
func TestPolicyNamesResolve(t *testing.T) {
	for _, name := range PolicyNames() {
		for _, backbone := range []float64{0, 100 * core.Mbps} {
			for _, shards := range shardCounts {
				srv, err := New(shardProblemBackbone(t, backbone), shardLayout(t), Config{Policy: name, Shards: shards})
				if err != nil {
					t.Fatalf("advertised policy %q (backbone %g, shards %d) does not resolve: %v", name, backbone, shards, err)
				}
				srv.Shutdown()
			}
		}
	}
}
