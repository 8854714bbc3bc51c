package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around the calls into each layer. Spans of one
// operation share Op; Parent is 0 for the operation's root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op, so the workload code has one
// shape and end-to-end numbers never pay for tracing.
type tracer struct {
	prefix string // request-id prefix: b<seed>
	t0     time.Time
	mu     sync.Mutex
	spans  []span // spans[id-1]
}

func newTracer(seed uint64) *tracer {
	return &tracer{prefix: fmt.Sprintf("b%d", seed), t0: time.Now()}
}

// startOp opens the root span of one operation.
func (t *tracer) startOp() int { return t.start(0, "bench", "op") }

// start opens a child of parent (0 = a new operation) and returns its id.
func (t *tracer) start(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, StartNs: now})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = now
	return time.Duration(s.EndNs - s.StartNs)
}

// requestID is the X-Request-ID every call of the span's operation
// carries, so daemon logs and responses correlate with the span file.
func (t *tracer) requestID(id int) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("%s-%d", t.prefix, t.spans[id-1].Op)
}

// selfTimes maps each span id to its self time: the span's duration minus
// the part of that interval its direct children cover. Children may
// overlap (the replayed fan-out posts to all signers at once), so the
// covered part is the union of their intervals, clipped to the parent.
// Within one operation the self times therefore sum to the root's
// duration exactly.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// selfByLayerName sums self time per "layer/name" and returns the mean
// per operation, in milliseconds.
func selfByLayerName(spans []span) map[string]float64 {
	ops := 0
	out := map[string]float64{}
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Parent == 0 {
			ops++
		}
		out[s.Layer+"/"+s.Name] += float64(self[s.ID]) / 1e6
	}
	for k := range out {
		out[k] /= float64(max(ops, 1))
	}
	return out
}

// write stores the spans as one JSON array under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
