package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a call into one layer's
// public API made by the benchmark. Spans of one op share Op; Parent is
// the id of the enclosing span, -1 for an op's root span.
type span struct {
	ID         int           `json:"id"`
	Parent     int           `json:"parent"`
	Op         int           `json:"op"`
	Name       string        `json:"name"`
	Start      time.Duration `json:"start_ns"`
	End        time.Duration `json:"end_ns"`
	AllocBytes uint64        `json:"alloc_bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the tracer clock: time since the tracer was made.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Duration, allocBytes uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start, End: end, AllocBytes: allocBytes})
	return id
}

// reserve records an open span whose end is set later by finish; it
// lets children name their parent before the parent completes.
func (t *tracer) reserve(name string, parent, op int) int {
	now := t.now()
	return t.add(name, parent, op, now, now, 0)
}

// finish sets the end of a reserved span.
func (t *tracer) finish(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time, indexed by span id: its
// duration minus the part of its interval that its child spans cover.
// Children may nest, overlap each other (parallel sweep points) or
// stick out of the parent; only the covered part inside the parent
// counts, and overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals
// clipped to [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	if len(kids) == 0 || hi <= lo {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]time.Duration) int { return cmp.Compare(x[0], y[0]) })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerTotals sums self time and allocated bytes per span name.
func layerTotals(spans []span) (self map[string]time.Duration, alloc map[string]uint64) {
	st := selfTimes(spans)
	self = make(map[string]time.Duration)
	alloc = make(map[string]uint64)
	for i, s := range spans {
		self[s.Name] += st[i]
		alloc[s.Name] += s.AllocBytes
	}
	return self, alloc
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
