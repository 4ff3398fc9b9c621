package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call: the program under test carries no tracing of its own.
type span struct {
	id, parent int64 // parent 0 means a root span
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
	track      int   // the recording goroutine's buffer, for display
}

// tracer keeps spans in memory until the run ends. Each recording goroutine
// owns a spanBuf, so recording takes no lock; ids come from one atomic
// counter so spans of different goroutines never collide.
type tracer struct {
	epoch   time.Time
	limit   int64 // spans kept; later ones are counted, not stored
	ids     atomic.Int64
	kept    atomic.Int64
	dropped atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one goroutine's span list. A nil *spanBuf records nothing,
// which is how untraced phases run the same code.
type spanBuf struct {
	t     *tracer
	track int
	spans []span
}

func newTracer(limit int64) *tracer {
	return &tracer{epoch: time.Now(), limit: limit}
}

// buf returns a new span list for one recording goroutine; on a nil tracer
// it returns nil.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, track: len(t.bufs)}
	t.bufs = append(t.bufs, b)
	return b
}

// add records a finished span.
func (b *spanBuf) add(name string, parent int64, start, end time.Time) {
	b.record(b.reserve(), name, parent, start, end)
}

// reserve returns an id for a span recorded later, so children can name a
// parent that has not finished yet.
func (b *spanBuf) reserve() int64 {
	if b == nil {
		return 0
	}
	return b.t.ids.Add(1)
}

// record stores a finished span under an id taken from reserve.
func (b *spanBuf) record(id int64, name string, parent int64, start, end time.Time) {
	if b == nil {
		return
	}
	if b.t.kept.Add(1) > b.t.limit {
		b.t.kept.Add(-1)
		b.t.dropped.Add(1)
		return
	}
	b.spans = append(b.spans, span{
		id: id, parent: parent, name: name, track: b.track,
		start: int64(start.Sub(b.t.epoch)), end: int64(end.Sub(b.t.epoch)),
	})
}

// all returns every kept span, ordered by start time. Call it only after
// every recording goroutine has finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// selfTime returns a span's duration minus the part of it its children
// cover. Children may overlap each other or reach past the parent; only
// the union of their intervals inside the parent is subtracted.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, x := range ivs {
		if x.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = x.a, x.b
			continue
		}
		curB = max(curB, x.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.end - parent.start - covered
}

// selfTimes returns the self time of every span named name, in nanoseconds,
// using the spans whose parent it is as its children.
func selfTimes(spans []span, name string) []float64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(selfTime(s, kids[s.id])))
		}
	}
	return out
}

// traceEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the kept spans at path in the Chrome trace-event format.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	meta["dropped_spans"] = t.dropped.Load()
	enc := json.NewEncoder(w)
	if _, err := fmt.Fprint(w, `{"otherData":`); err != nil {
		f.Close()
		return err
	}
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	if _, err := fmt.Fprint(w, `,"traceEvents":[`); err != nil {
		f.Close()
		return err
	}
	for i, s := range t.all() {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := traceEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.track,
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := fmt.Fprint(w, "]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes the traced run's spans when o names a file.
func writeSpans(tc *tracer, o options, r *result) error {
	if o.spansPath == "" {
		return nil
	}
	err := tc.write(o.spansPath, map[string]any{"workload": r.workload, "seed": o.seed, "seconds": o.seconds})
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %s\n", o.spansPath)
	return nil
}
