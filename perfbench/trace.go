package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the index of the span that caused this one, or -1 for a
// root. Start and End are nanoseconds since the tracer started. Counters
// read before and after the span land in Attrs as deltas.
type span struct {
	Name   string           `json:"name"`
	Req    int64            `json:"req"`
	Parent int              `json:"parent"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, req int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span h, attaching attrs (which the tracer then owns).
func (t *tracer) end(h int, attrs map[string]int64) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[h].End = now
	t.spans[h].Attrs = attrs
}

// record adds a closed span for a call timed by the caller.
func (t *tracer) record(name string, req int64, parent int, start time.Time, d time.Duration, attrs map[string]int64) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: s, End: s + d.Nanoseconds(), Attrs: attrs})
	return len(t.spans) - 1
}

// snapshot copies the spans in recording order, so that Parent handles
// index the copy.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one span name's time in a trace.
type layerTime struct {
	Name    string
	Count   int
	TotalMS float64 // sum of span durations
	SelfMS  float64 // sum of durations minus the time children cover
	SelfP50 float64 // median self time per span, µs
}

// selfTimes computes each span name's self time: a span's duration minus
// the part of its interval that its children cover (children clipped to
// the parent, overlapping children counted once). Spans still open are
// skipped.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*layerTime{}
	selfs := map[string][]float64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		covered := coverage(children[i], s.Start, s.End)
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.TotalMS += float64(d) / 1e6
		lt.SelfMS += float64(d-covered) / 1e6
		selfs[s.Name] = append(selfs[s.Name], float64(d-covered)/1e3)
	}
	out := make([]layerTime, 0, len(byName))
	for name, lt := range byName {
		lt.SelfP50 = median(selfs[name])
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coverage is the length of the union of intervals clipped to [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// formatLayers renders self times as report lines.
func formatLayers(lts []layerTime) []string {
	out := []string{fmt.Sprintf("  %-24s %9s %12s %12s %14s", "span", "count", "total ms", "self ms", "self p50 us")}
	for _, lt := range lts {
		out = append(out, fmt.Sprintf("  %-24s %9d %12.3f %12.3f %14.3f", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS, lt.SelfP50))
	}
	return out
}
