package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// procSnap is the benchmark process's resource use at one instant: CPU
// time from getrusage and the Go runtime's allocation and GC counters.
type procSnap struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func takeProc() procSnap {
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{cpu: cpu, alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// to returns the resource use between snapshots a and b.
func (a procSnap) to(b procSnap) procSnap {
	return procSnap{cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc, gcs: b.gcs - a.gcs}
}

// plus adds the resource use of two stretches of time.
func (a procSnap) plus(b procSnap) procSnap {
	return procSnap{cpu: a.cpu + b.cpu, alloc: a.alloc + b.alloc, gcs: a.gcs + b.gcs}
}

// setProc reports the process's resource use over a traced phase; smp is
// nil when no sampler ran.
func setProc(r *result, pd procSnap, decisions, ops int64, smp *sampler) {
	if decisions > 0 {
		r.set("proc.cpu_us_per_decision", float64(pd.cpu.Microseconds())/float64(decisions), 0)
	}
	if ops > 0 {
		r.set("proc.alloc_bytes_per_op", float64(pd.alloc)/float64(ops), 0)
	}
	r.set("proc.gc_cycles", float64(pd.gcs), 0)
	if smp != nil {
		r.set("proc.goroutines_peak", float64(smp.goroutinesPeak), smp.samples)
	}
}

// liveMB forces a garbage collection and returns the live heap objects and
// goroutine stacks the process still holds, in MB. Unlike peak RSS it does
// not depend on when collections happened to run.
func liveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc+ms.StackInuse) / 1e6
}

// sampler polls the goroutine count and the daemon's live-session count
// every 10 ms while a traced phase runs.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	goroutinesPeak int
	activeSum      float64
	samples        int
}

// startSampler starts polling; active may be nil when no daemon runs.
func startSampler(active func() int64) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			s.goroutinesPeak = max(s.goroutinesPeak, runtime.NumGoroutine())
			if active != nil {
				s.activeSum += float64(active())
				s.samples++
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it; its fields are then final.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

func (s *sampler) activeMean() float64 {
	if s.samples == 0 {
		return 0
	}
	return s.activeSum / float64(s.samples)
}
