package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one client
// operation (or episode, or campaign run) share Op; Parent is the ID of
// the span that caused this one, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. All methods accept a
// nil receiver and then do nothing, so workloads call them
// unconditionally and an untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an interval measured elsewhere (the failover poller's
// observations are turned into spans after the episode).
func (t *tracer) add(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return int64(len(t.spans))
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}

// selfTime is one row of the per-name summary: how often a span name
// occurred, its total duration, and the part of it no child covers.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, duration and self time (duration minus
// the children's durations; children of one parent do not overlap here
// because every workload is driven by one goroutine).
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End > s.Start {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range t.spans {
		if s.End <= s.Start {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &selfTime{name: s.Name}
			byName[s.Name] = r
		}
		d := s.End - s.Start
		r.count++
		r.total += time.Duration(d)
		r.self += time.Duration(max(d-child[s.ID], 0))
	}
	rows := make([]selfTime, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}
