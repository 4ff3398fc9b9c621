package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func sp(id, parent, start, end int64) span {
	return span{id: id, parent: parent, name: "x", start: start, end: end}
}

func TestSelfTimeSubtractsCoveredUnion(t *testing.T) {
	parent := sp(1, 0, 100, 200)
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(2, 1, 110, 120), sp(3, 1, 150, 170)}, 70},
		{"overlapping children count once", []span{sp(2, 1, 110, 150), sp(3, 1, 140, 160)}, 50},
		{"nested child", []span{sp(2, 1, 110, 190), sp(3, 1, 120, 130)}, 20},
		{"children clipped to the parent", []span{sp(2, 1, 50, 120), sp(3, 1, 180, 260)}, 60},
		{"child outside the parent", []span{sp(2, 1, 10, 90)}, 100},
		{"fully covered", []span{sp(2, 1, 100, 200)}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesGroupsByParent(t *testing.T) {
	spans := []span{
		{id: 1, name: "plan", start: 0, end: 100},
		{id: 2, parent: 1, name: "sim", start: 10, end: 40},
		{id: 3, parent: 1, name: "anneal", start: 40, end: 90},
		{id: 4, name: "plan", start: 100, end: 150},
		{id: 5, parent: 4, name: "sim", start: 100, end: 110},
	}
	got := selfTimes(spans, "plan")
	if len(got) != 2 || got[0] != 20 || got[1] != 40 {
		t.Fatalf("selfTimes = %v, want [20 40]", got)
	}
}

func TestTracerKeepsSpansFromManyGoroutinesAndWritesThem(t *testing.T) {
	tc := newTracer(150)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(b *spanBuf) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				now := time.Now()
				b.add("span", 0, now, now.Add(time.Microsecond))
			}
		}(tc.buf())
	}
	wg.Wait()
	if kept, dropped := len(tc.all()), tc.dropped.Load(); kept != 150 || dropped != 50 {
		t.Fatalf("kept %d and dropped %d spans, want 150 and 50", kept, dropped)
	}
	seen := map[int64]bool{}
	for _, s := range tc.all() {
		if seen[s.id] {
			t.Fatalf("span id %d recorded twice", s.id)
		}
		seen[s.id] = true
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tc.write(path, map[string]any{"workload": "test"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData   map[string]any `json:"otherData"`
		TraceEvents []traceEvent   `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 150 || doc.OtherData["dropped_spans"] != float64(50) {
		t.Fatalf("span file holds %d events, dropped %v; want 150 and 50", len(doc.TraceEvents), doc.OtherData["dropped_spans"])
	}
}

func TestNilSpanBufferRecordsNothing(t *testing.T) {
	var tc *tracer
	b := tc.buf()
	b.add("x", 0, time.Now(), time.Now())
	if b.reserve() != 0 {
		t.Fatal("a nil span buffer handed out an id")
	}
}
