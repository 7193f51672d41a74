package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a call into a layer. Times are
// nanoseconds since the tracer's origin; Parent is the enclosing span's
// ID (0 at the root) and Req is shared by every span of one serve-live
// request (0 elsewhere).
type span struct {
	ID     int32
	Parent int32
	Req    uint64
	Name   string
	Start  int64
	End    int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin and end return at once and record nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// costNs is the host time spent inside the tracer's own methods.
	costNs int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	if t == nil {
		return 0
	}
	entry := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Parent: parent, Req: req, Name: name, Start: entry.Sub(t.t0).Nanoseconds(), End: -1})
	id := int32(len(t.spans))
	t.spans[id-1].ID = id
	t.costNs += time.Since(entry).Nanoseconds()
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	entry := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = entry.Sub(t.t0).Nanoseconds()
	t.costNs += time.Since(entry).Nanoseconds()
	t.mu.Unlock()
}

// record adds a span whose interval was measured by the caller, and
// returns its ID (0 on a nil tracer).
func (t *tracer) record(name string, parent int32, req uint64, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	entry := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.costNs += time.Since(entry).Nanoseconds()
	return id
}

// cost returns the host time spent inside the tracer so far (0 on a nil
// tracer).
func (t *tracer) cost() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.costNs)
}

// selfTimes derives each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return spans[ivs[a]-1].Start < spans[ivs[b]-1].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ivs {
			c := spans[k-1]
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write stores every span, with its self time, as one JSON object per
// line under dir, and prints a per-name summary to w.
func (t *tracer) write(dir, workload string, seed uint64, w io.Writer) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type rec struct {
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Req    uint64 `json:"req,omitempty"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
	}
	for i, s := range spans {
		if err := enc.Encode(rec{s.ID, s.Parent, s.Req, s.Name, s.Start, s.End, self[i]}); err != nil {
			f.Close()
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}

	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	var names []string
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += self[i]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %d written to %s\n", len(spans), path)
	fmt.Fprintf(w, "  %-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-28s %9d %12.3f %12.3f\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	return path, nil
}
