package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own code around the call into that layer. Spans of one
// request share Req; Parent is the span that caused this one (0: root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// run with tracing off; callers test for it before recording.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record stores a finished span with a pre-allocated id.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// partitions records one child span per partition scan of a facade
// call. QueryReport carries each partition's duration but not its start,
// so every child starts with its parent: their union is the slowest
// partition, and the parent's self time is Wall − MaxPartition.
func (t *tracer) partitions(parent, req int64, start time.Time, times []time.Duration) {
	for _, d := range times {
		t.record(t.newID(), parent, req, "partition", start, start.Add(d))
	}
}

// A traced run alternates untraced and traced windows of equal length,
// tracePairs of each. The two windows of a pair replay the same seeded
// operations, and the pairs alternate which window runs first, so
// warm-up and drift do not count against one side. The tracing overhead
// is the median over the pairs of the traced window's p50 latency minus
// the untraced one's; noise between windows shows as a spread of that
// difference around 0, in either direction.
const tracePairs = 4

// pairOrder returns whether each window of pair p is traced, in the
// order they run.
func pairOrder(p int) []bool {
	if p%2 == 0 {
		return []bool{false, true}
	}
	return []bool{true, false}
}

// selfTimes returns, per layer, the mean self time of its spans: each
// span's duration minus the part its children cover. Layers are the
// span names, with every "cluster.*" call pooled as "cluster".
func (t *tracer) selfTimes() (map[string]time.Duration, int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	sum := map[string]time.Duration{}
	n := map[string]int{}
	for _, s := range spans {
		layer := s.Name
		if strings.HasPrefix(layer, "cluster.") {
			layer = "cluster"
		}
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		sum[layer] += time.Duration(self)
		n[layer]++
	}
	out := map[string]time.Duration{}
	for layer, total := range sum {
		out[layer] = total / time.Duration(n[layer])
	}
	return out, len(spans)
}

// covered returns how much of [start, end) the intervals cover.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
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
	return err
}

// finishTrace writes the span dump next to the results and reports the
// span count and per-layer self times.
func (r *run) finishTrace(t *tracer) error {
	self, n := t.selfTimes()
	r.set("trace.spans", float64(n))
	r.set("trace.self_ms.http", ms(self["http"]))
	r.set("trace.self_ms.serve_backend", ms(self["serve.backend"]))
	r.set("trace.self_ms.cluster", ms(self["cluster"]))
	r.set("trace.self_ms.partition", ms(self["partition"]))
	return t.dump(filepath.Join(r.out, fmt.Sprintf("%s-seed%d-spans.jsonl", r.workload, r.seed)))
}
