package main

import (
	"fmt"
	"sync"
	"time"

	"vodcluster/internal/serve"
)

// admit-batch: a batching front end waits for each reply, so the load is a
// closed loop. Each of 2 connections pipelines the closes of its oldest
// sessions, down to 1600 open, with one POST /open/batch of 256 and waits
// for the replies. Two connections then offer up to 2 × (1600 + 256)
// sessions to the 3600-stream cluster, which runs at about 90% occupancy
// and both accepts and capacity rejects occur. The daemon runs one shard per backend behind 2 listeners; sessions
// run in real time and end only by explicit close.
const (
	batchSize      = 256
	batchConns     = 2
	batchRing      = 1600
	batchShards    = 8
	batchListeners = 2
	// batchStream is the length of each connection's cyclic video stream.
	batchStream = 1 << 16
	// batchNominalRate sizes a run: it sends --seconds × this many
	// decisions, about what the 2-vCPU reference host settles per second.
	// A run does a fixed amount of work rather than running for a fixed
	// time because the daemon's memory grows with every session it has
	// admitted, so peak RSS is only comparable between runs of equal work.
	batchNominalRate = 250000
)

// batchRounds is how many batch round trips each connection makes in a
// phase meant to last about seconds.
func batchRounds(seconds float64) int {
	return max(1, int(seconds*batchNominalRate/(batchConns*batchSize)))
}

// ringCap is the most sessions a connection can hold: the ring plus one
// fully admitted batch.
const ringCap = batchRing + batchSize

// ring is a FIFO of open session ids, oldest first.
type ring struct {
	ids        [ringCap]int64
	head, size int
}

func (q *ring) push(id int64) {
	q.ids[(q.head+q.size)%ringCap] = id
	q.size++
}

// at returns the i-th oldest id.
func (q *ring) at(i int) int64 { return q.ids[(q.head+i)%ringCap] }

func (q *ring) drop(n int) {
	q.head = (q.head + n) % ringCap
	q.size -= n
}

// overflow is how many of the oldest sessions close before the next batch:
// enough to bring the ring back to batchRing.
func (q *ring) overflow() int { return max(0, q.size-batchRing) }

// batchLane is one admit-batch connection.
type batchLane struct {
	fc   *serve.FastConn
	vids []int
	pos  int
	open ring

	rt                 []float64 // µs per batch round trip
	closes             int64
	accepted, rejected int64
}

func (l *batchLane) nextBatch(dst []int) {
	for i := range dst {
		dst[i] = l.vids[l.pos]
		l.pos = (l.pos + 1) % len(l.vids)
	}
}

// countdown returns a condition that holds n times.
func countdown(n int) func() bool {
	return func() bool { n--; return n >= 0 }
}

// run sends batches while more reports true, then closes every session it
// holds.
func (l *batchLane) run(more func() bool, b *spanBuf) error {
	bv := make([]int, batchSize)
	var res []serve.OpenResult
	for more() {
		ncl := l.open.overflow()
		for i := 0; i < ncl; i++ {
			l.fc.QueueClose(l.open.at(i))
		}
		l.nextBatch(bv)
		l.fc.QueueOpenBatch(bv)
		t0 := time.Now()
		if err := l.fc.Flush(); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		for i := 0; i < ncl; i++ {
			live, err := l.fc.ReadClose()
			if err != nil {
				return fmt.Errorf("close reply: %w", err)
			}
			if !live {
				return fmt.Errorf("session %d was gone before its close", l.open.at(i))
			}
		}
		var err error
		res, err = l.fc.ReadOpenBatch(res[:0])
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("batch reply: %w", err)
		}
		if len(res) != batchSize {
			return fmt.Errorf("batch of %d got %d results", batchSize, len(res))
		}
		l.open.drop(ncl)
		l.closes += int64(ncl)
		l.rt = append(l.rt, float64(t1.Sub(t0))/1e3)
		b.add("ingress.batch", 0, t0, t1)
		for _, or := range res {
			switch or.Outcome {
			case serve.OutcomeAccepted:
				l.accepted++
				l.open.push(or.Info.ID)
			case serve.OutcomeRejected:
				l.rejected++
			default:
				return fmt.Errorf("batch element: unexpected outcome %q (%s)", or.Outcome, or.Err)
			}
		}
	}
	return l.closeAll()
}

// closeAll closes every session the lane holds in one pipelined flush.
func (l *batchLane) closeAll() error {
	for i := 0; i < l.open.size; i++ {
		l.fc.QueueClose(l.open.at(i))
	}
	if err := l.fc.Flush(); err != nil {
		return err
	}
	for i := 0; i < l.open.size; i++ {
		live, err := l.fc.ReadClose()
		if err != nil {
			return err
		}
		if !live {
			return fmt.Errorf("session %d was gone before its close", l.open.at(i))
		}
	}
	l.open.drop(l.open.size)
	return nil
}

// batchPhase is what one closed-loop pass measured.
type batchPhase struct {
	rt                 []float64
	accepted, rejected int64
	closes             int64
	elapsed            time.Duration
}

func (ph *batchPhase) decisions() int64 { return ph.accepted + ph.rejected }

// batchStreams draws one cyclic Zipf video stream per connection.
func batchStreams(d *daemon, seed int64) ([][]int, error) {
	streams := make([][]int, batchConns)
	for i := range streams {
		// One request per virtual second for batchStream seconds yields
		// about batchStream videos.
		tr, err := poissonTrace(d.p, 1, batchStream, seed*batchConns+int64(i))
		if err != nil {
			return nil, err
		}
		for _, rq := range tr.Requests {
			streams[i] = append(streams[i], rq.Video)
		}
	}
	return streams, nil
}

// driveBatch runs the closed loop on every connection for the given number
// of round trips each.
func driveBatch(d *daemon, streams [][]int, rounds int, buf func() *spanBuf) (*batchPhase, error) {
	lanes := make([]*batchLane, len(d.conns))
	for i, fc := range d.conns {
		lanes[i] = &batchLane{fc: fc, vids: streams[i]}
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(lanes))
	for i, l := range lanes {
		wg.Add(1)
		go func(i int, l *batchLane, b *spanBuf) {
			defer wg.Done()
			errs[i] = l.run(countdown(rounds), b)
		}(i, l, buf())
	}
	wg.Wait()
	ph := &batchPhase{elapsed: time.Since(start)}
	for i, l := range lanes {
		if errs[i] != nil {
			return nil, errs[i]
		}
		ph.rt = append(ph.rt, l.rt...)
		ph.accepted += l.accepted
		ph.rejected += l.rejected
		ph.closes += l.closes
	}
	return ph, nil
}

// warmBatch runs 16 batches per connection, the last ones past the ring,
// and closes what they admitted.
func warmBatch(d *daemon) error {
	for i, fc := range d.conns {
		l := &batchLane{fc: fc, vids: make([]int, batchSize)}
		for k := range l.vids {
			l.vids[k] = (k + i) % d.p.M()
		}
		if err := l.run(countdown(16), nil); err != nil {
			return err
		}
	}
	return settle(d.srv, 5*time.Second)
}

// checkBatchPhase applies the admit-batch correctness checks to one phase.
func checkBatchPhase(r *result, d *daemon, ph *batchPhase, label string) {
	r.check(ph.accepted > 0 && ph.rejected > 0,
		"%s: want both accepts and rejects near capacity, got %d and %d", label, ph.accepted, ph.rejected)
	if err := settle(d.srv, 5*time.Second); err != nil {
		r.check(false, "%s: %v", label, err)
	}
}

func runAdmitBatch(o options) (*result, error) {
	r := newResult("admit-batch")
	cfg := serve.Config{Compress: 1, Shards: batchShards, AdmitDelay: o.admitDelay}
	d, setupTimes, err := setUp(cfg, batchListeners, batchConns, o.reps(liveSetupReps), warmBatch)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	streams, err := batchStreams(d, o.seed)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		ph, err := driveBatch(d, streams, batchRounds(o.seconds), func() *spanBuf { return nil })
		if err != nil {
			return nil, err
		}
		rt := summarize(ph.rt)
		// Drop the generator's streams and timings so that live_mb holds
		// the daemon, its layout and the connections only.
		streams, ph.rt = nil, nil
		mem := liveMB()
		r.attempted = ph.decisions()
		checkBatchPhase(r, d, ph, "admit-batch")
		obj, imb := planScore(d.p, d.layout)
		r.set("setup_s", median(setupTimes), len(setupTimes))
		r.set("p50_ms", rt.p50/1e3, rt.n)
		r.set("decisions_per_s", float64(ph.decisions())/ph.elapsed.Seconds(), 0)
		r.set("accept_rate", float64(ph.accepted)/float64(ph.decisions()), 0)
		r.set("live_mb", mem, 0)
		r.set("objective", obj, 0)
		r.set("imbalance", imb, 0)
		return r, nil
	}

	// Traced run: untraced, traced, then the same loop straight into a
	// fresh engine (the ladder rung), a third of the work each.
	third := batchRounds(o.seconds / 3)
	plain, err := driveBatch(d, streams, third, func() *spanBuf { return nil })
	if err != nil {
		return nil, err
	}
	checkBatchPhase(r, d, plain, "untraced phase")

	tc := newTracer(1 << 18)
	before, c0 := takeProc(), readCounters(d)
	smp := startSampler(d.srv.Active)
	ph, err := driveBatch(d, streams, third, tc.buf)
	smp.finish()
	if err != nil {
		return nil, err
	}
	pd, c1 := before.to(takeProc()), readCounters(d)
	checkBatchPhase(r, d, ph, "traced phase")
	setEngineCounters(r, c0.to(c1), ph.decisions(), ph.accepted)

	opens, closes, err := ladderBatch(cfg, d, streams, third, tc)
	if err != nil {
		return nil, err
	}
	r.attempted = plain.decisions() + ph.decisions() + int64(len(opens))

	rt, eng, cl := summarize(ph.rt), summarize(opens), summarize(closes)
	closesPerBatch := float64(ph.closes) / float64(len(ph.rt))
	r.set("ingress.rt_us.p50", rt.p50, rt.n)
	r.set("ingress.rt_us.p99", rt.p99, rt.n)
	r.set("ingress.self_us.p50", (rt.p50-closesPerBatch*cl.p50)/batchSize-eng.p50, rt.n)
	r.set("ingress.batch_us_per_decision", mean(ph.rt)/batchSize, rt.n)
	r.set("engine.open_us.p50", eng.p50, eng.n)
	r.set("engine.open_us.p99", eng.p99, eng.n)
	r.set("engine.close_us.p50", cl.p50, cl.n)
	r.set("engine.active_mean", smp.activeMean(), smp.samples)
	setProc(r, pd, ph.decisions(), int64(len(ph.rt)), smp)
	r.set("trace.overhead_ms", (rt.p50-summarize(plain.rt).p50)/1e3, rt.n)
	return r, writeSpans(tc, o, r)
}

// ladderBatch runs the admit-batch loop straight into Server.Open and
// Server.Close of a fresh engine with the same configuration, one goroutine
// per connection it stands in for, timing each call.
func ladderBatch(cfg serve.Config, d *daemon, streams [][]int, rounds int, tc *tracer) (opens, closes []float64, err error) {
	srv, err := serve.New(d.p, d.layout, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer srv.Shutdown()
	type laneOut struct {
		opens, closes []float64
		err           error
	}
	outs := make([]laneOut, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int, b *spanBuf) {
			defer wg.Done()
			out := &outs[i]
			l := &batchLane{vids: streams[i]}
			bv := make([]int, batchSize)
			for more := countdown(rounds); more(); {
				ncl := l.open.overflow()
				for k := 0; k < ncl; k++ {
					t0 := time.Now()
					live := srv.Close(l.open.at(k))
					t1 := time.Now()
					if !live {
						out.err = fmt.Errorf("engine: session %d was gone before its close", l.open.at(k))
						return
					}
					out.closes = append(out.closes, float64(t1.Sub(t0))/1e3)
					b.add("engine.close", 0, t0, t1)
				}
				l.open.drop(ncl)
				l.nextBatch(bv)
				for _, v := range bv {
					t0 := time.Now()
					info, res, err := srv.Open(v)
					t1 := time.Now()
					if err != nil {
						out.err = err
						return
					}
					out.opens = append(out.opens, float64(t1.Sub(t0))/1e3)
					b.add("engine.open", 0, t0, t1)
					if res == serve.OutcomeAccepted {
						l.open.push(info.ID)
					}
				}
			}
			for k := 0; k < l.open.size; k++ {
				srv.Close(l.open.at(k))
			}
		}(i, tc.buf())
	}
	wg.Wait()
	for _, out := range outs {
		if out.err != nil {
			return nil, nil, out.err
		}
		opens = append(opens, out.opens...)
		closes = append(closes, out.closes...)
	}
	if err := settle(srv, 5*time.Second); err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	return opens, closes, nil
}
