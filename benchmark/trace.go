package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer's public function,
// taken with the benchmark's own clock: nothing inside the program is
// instrumented. Parent is the id of the enclosing span (-1 for a root); the
// spans of one op share Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 from a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durMS is a finished span's duration (0 from a nil tracer).
func (t *tracer) durMS(id int) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.spans[id].End-t.spans[id].Start) / 1e6
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count  int
	durMS  []float64 // one entry per span
	selfMS float64   // summed duration minus the part child spans cover
	totMS  float64
}

// byName sums duration and self time per span name. Children of one parent
// never overlap each other here (each parent runs on one goroutine), so self
// time is the span minus the sum of its direct children.
func (t *tracer) byName() map[string]*spanStats {
	out := map[string]*spanStats{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e6
		st.count++
		st.durMS = append(st.durMS, d)
		st.totMS += d
		st.selfMS += d - float64(child[s.ID])/1e6
	}
	return out
}

// check verifies the trace's structure: every parent exists and every child
// lies inside its parent.
func (t *tracer) check() error {
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(t.spans) {
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		p := t.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
