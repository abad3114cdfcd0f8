package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run's spans: each records a call into one layer made by the
// benchmark's own code — name ("<layer>.<what>"), start, end, the span
// that caused it, the op it belongs to, and a count of the work done at
// that boundary (requests, activations, jobs). Spans stay in memory and
// are written out once, with the per-layer self-time table, when the
// traced run ends.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

func (s *span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	return t.record(name, parent, op, time.Now(), time.Time{}, 0)
}

// end closes span id now, recording the work count done inside it.
func (t *tracer) end(id int, count int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Count = count
	t.mu.Unlock()
}

// record adds a span with explicit times (a zero end leaves it open).
func (t *tracer) record(name string, parent, op int, start, end time.Time, count int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Count: count}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Nanoseconds()
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// total sums the durations and counts of every span with this name.
func (t *tracer) total(name string) (seconds float64, count int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].Name == name {
			seconds += t.spans[i].seconds()
			count += t.spans[i].Count
		}
	}
	return seconds, count
}

// totalByOp sums the durations of every span with this name by op.
func (t *tracer) totalByOp(name string) map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]float64{}
	for i := range t.spans {
		if t.spans[i].Name == name {
			out[t.spans[i].Op] += t.spans[i].seconds()
		}
	}
	return out
}

// durationsMS lists the durations of every span with this name.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].End-t.spans[i].Start)/1e6)
		}
	}
	return out
}

// selfRow is one layer's line in the self-time table.
type selfRow struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
	Share float64 `json:"self_share"`
}

// selfTimes computes the self time of each span under a root span named
// root — its duration minus the part of its interval that its child spans
// cover — and sums it by layer. Spans under other roots (runner ops,
// server jobs) wrap the whole stack below them and are left out. adjust
// may move self time between layers afterwards (the engine's replay span
// covers work the other layers' spans measured separately).
func (t *tracer) selfTimes(root string, adjust func(self map[string]float64)) []selfRow {
	t.mu.Lock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	total := map[string]float64{}
	count := map[string]int{}
	for _, s := range t.spans {
		r := s
		for r.Parent >= 0 {
			r = t.spans[r.Parent]
		}
		// The root's own time is the benchmark's preparation between
		// layer calls, not a layer's.
		if r.Name != root || s.ID == r.ID {
			continue
		}
		covered := coverage(children[s.ID], s.Start, s.End)
		self[s.layer()] += float64(s.End-s.Start-covered) / 1e9
		total[s.layer()] += s.seconds()
		count[s.layer()]++
	}
	t.mu.Unlock()
	if adjust != nil {
		adjust(self)
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	var rows []selfRow
	for l := range self {
		r := selfRow{Layer: l, Spans: count[l], Total: total[l], Self: self[l]}
		if sum > 0 {
			r.Share = self[l] / sum
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows
}

// coverage is the length of the union of the intervals, clipped to
// [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64 = 0, lo
	for _, r := range iv {
		a, b := max(r[0], end), min(r[1], hi)
		if b > a {
			covered += b - a
			end = b
		}
	}
	return covered
}

// write stores the spans and the self-time table as JSON under o.outDir.
func (t *tracer) write(o *options, ls *layerStats) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	t.mu.Lock()
	doc := struct {
		Workload  string    `json:"workload"`
		Seed      uint64    `json:"seed"`
		SelfTime  []selfRow `json:"self_time"`
		Spans     []span    `json:"spans"`
		SpanCount int       `json:"span_count"`
	}{o.workload, o.seed, ls.selfTable, t.spans, len(t.spans)}
	data, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func printSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-10s %7s %12s %12s %8s\n", "layer", "spans", "total_s", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7d %12.6f %12.6f %7.1f%%\n", r.Layer, r.Spans, r.Total, r.Self, 100*r.Share)
	}
}
