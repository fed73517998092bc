package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a package: start and end in
// nanoseconds since the tracer began, the index of the span that caused it
// (-1 for none) and the operation it belongs to (-1 outside operations).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// requestID encodes a client span into the X-Request-ID header, so the
// server-side span can name it as its parent.
func requestID(kind string, op int64, parent int) string {
	return fmt.Sprintf("%s.%d.%d", kind, op, parent)
}

// parseRequestID is the inverse of requestID; foreign IDs yield kind
// "other" and no parent.
func parseRequestID(id string) (kind string, op int64, parent int) {
	parts := strings.Split(id, ".")
	if len(parts) == 3 {
		o, err1 := strconv.ParseInt(parts[1], 10, 64)
		p, err2 := strconv.Atoi(parts[2])
		if err1 == nil && err2 == nil {
			return parts[0], o, p
		}
	}
	return "other", -1, -1
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and children are clipped to the parent's interval.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanStats indexes a finished trace by span name.
type spanStats struct {
	spans []span
	self  []time.Duration
}

func newSpanStats(t *tracer) spanStats {
	if t == nil {
		return spanStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return spanStats{spans: t.spans, self: selfTimes(t.spans)}
}

// durations returns the full durations of the spans with one of the names.
func (s spanStats) durations(names ...string) []time.Duration {
	var out []time.Duration
	for _, sp := range s.spans {
		if slices.Contains(names, sp.Name) {
			out = append(out, time.Duration(sp.End-sp.Start))
		}
	}
	return out
}

// selfs returns the self times of the spans with one of the names.
func (s spanStats) selfs(names ...string) []time.Duration {
	var out []time.Duration
	for i, sp := range s.spans {
		if slices.Contains(names, sp.Name) {
			out = append(out, s.self[i])
		}
	}
	return out
}

// medianMS is the median duration of the named spans in milliseconds.
func (s spanStats) medianMS(names ...string) float64 { return ms(median(s.durations(names...))) }

// total sums durations.
func total(d []time.Duration) time.Duration {
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum
}

// writeSpans writes the trace as one JSON object per line.
func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
