package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// share op; parent is the enclosing span (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory until the run ends. A
// nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span measured elsewhere (a server-side interval reported in
// a response, or a first-row mark inside a streaming call).
func (t *tracer) add(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return int64(len(t.spans))
}

// durations returns the durations, in ms, of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// medianMs is the median duration of spans named name (0 when none ran).
func (t *tracer) medianMs(name string) float64 { return median(t.durations(name)) }

// selfTimes reports, per span name, the median and total self time in ms: a
// span's duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]map[string]float64 {
	t.mu.Lock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string][]float64{}
	for _, s := range t.spans {
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-covered(s, children[s.ID]))/1e6)
	}
	t.mu.Unlock()
	out := map[string]map[string]float64{}
	for name, xs := range self {
		var total float64
		for _, x := range xs {
			total += x
		}
		out[name] = map[string]float64{"n": float64(len(xs)), "median_self_ms": median(xs), "total_self_ms": total}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON lines.
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
