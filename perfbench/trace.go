package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer: its name, its interval in
// nanoseconds since the tracer started, the span that caused it (0 for a
// root) and the request it belongs to (0 outside request handling).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced mode. A nil *tracer is the
// untraced mode: every method is a no-op and costs one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span and returns fn's error.
func (t *tracer) call(name string, parent, req int64, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return err
}

// selfNS returns each closed span's self time: its duration minus the
// part of its interval covered by its children, indexed like t.spans.
func (t *tracer) selfNS() []int64 {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	SelfMS   float64 `json:"self_ms"`
	MedianMS float64 `json:"median_ms"`
	SelfMed  float64 `json:"self_median_ms"`
}

// summary aggregates spans by name.
func (t *tracer) summary() map[string]spanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfNS()
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(self[i])/1e6)
	}
	out := map[string]spanStat{}
	for name, d := range durs {
		st := spanStat{Count: len(d), MedianMS: median(d), SelfMed: median(selfs[name])}
		for i := range d {
			st.TotalMS += d[i]
			st.SelfMS += selfs[name][i]
		}
		out[name] = st
	}
	return out
}

// write saves every span plus the per-name summary as JSON.
func (t *tracer) write(path string) error {
	sum := t.summary()
	t.mu.Lock()
	doc := struct {
		Spans   []span              `json:"spans"`
		Summary map[string]spanStat `json:"summary"`
	}{t.spans, sum}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
