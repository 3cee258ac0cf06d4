package main

// Spans of the traced run. The benchmark opens a span around each call
// it makes into a layer; spans live in memory and are written at the end
// as Chrome trace-event JSON (load it in chrome://tracing or Perfetto)
// next to a self-time table. Only the benchmark's goroutine records
// spans, so the tracer needs no locking.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type span struct {
	Name   string
	Req    int // request (operation) ID; spans of one request share it
	Parent int // index of the parent span, -1 for a root
	Start  time.Duration
	End    time.Duration
	// Work is the number of work units the span covered (runs, accesses,
	// bytes...), so per-unit layer metrics divide by it.
	Work float64
}

func (s span) dur() time.Duration { return s.End - s.Start }

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.t0), End: -1})
	return len(t.spans) - 1
}

// end closes span i, recording work units.
func (t *tracer) end(i int, work float64) {
	t.spans[i].End = time.Since(t.t0)
	t.spans[i].Work = work
}

// layerStat summarises one span name.
type layerStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes returns each span's duration minus the part of it its
// children cover (children clipped to the parent's interval).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur()
	}
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		p := t.spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}

// checkNesting verifies, for every root span, that the self times of its
// descendants (itself included) sum to no more than its duration, and
// that every span was closed.
func (t *tracer) checkNesting() error {
	self := t.selfTimes()
	root := make([]int, len(t.spans))
	sum := map[int]time.Duration{}
	for i, s := range t.spans {
		if s.End < 0 {
			return fmt.Errorf("span %s (request %d) never closed", s.Name, s.Req)
		}
		if s.Parent < 0 {
			root[i] = i
		} else {
			root[i] = root[s.Parent]
		}
		sum[root[i]] += self[i]
	}
	for r, total := range sum {
		if total > t.spans[r].dur() {
			return fmt.Errorf("request %d (%s): descendants' self times %v exceed the request span %v",
				t.spans[r].Req, t.spans[r].Name, total, t.spans[r].dur())
		}
	}
	return nil
}

// stats aggregates spans by name, sorted by self time.
func (t *tracer) stats() []layerStat {
	self := t.selfTimes()
	by := map[string]*layerStat{}
	for i, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += self[i]
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// perUnit returns, for every span named name with work > 0, its duration
// per work unit in the given unit.
func (t *tracer) perUnit(name string, unit time.Duration) []float64 {
	return t.perUnitFrom(0, name, unit)
}

// perUnitFrom is perUnit over the spans recorded from index from on.
func (t *tracer) perUnitFrom(from int, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans[from:] {
		if s.Name == name && s.Work > 0 {
			out = append(out, float64(s.dur())/float64(unit)/s.Work)
		}
	}
	return out
}

// table renders the self-time table.
func (t *tracer) table() string {
	var b strings.Builder
	var total time.Duration
	st := t.stats()
	for _, s := range st {
		total += s.Self
	}
	fmt.Fprintf(&b, "%-34s %8s %12s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self_mean_us", "self_%")
	for _, s := range st {
		fmt.Fprintf(&b, "%-34s %8d %12.3f %12.3f %12.3f %7.2f\n", s.Name, s.Count,
			float64(s.Total)/1e6, float64(s.Self)/1e6, float64(s.Self)/1e3/float64(s.Count),
			100*float64(s.Self)/float64(max(total, 1)))
	}
	return b.String()
}

// writeChrome writes the spans as Chrome trace events ("X" complete
// events, microsecond timestamps).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		evs[i] = event{Name: s.Name, Cat: cat, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, PID: 1, TID: 1,
			Args: map[string]any{"request": s.Req, "parent": s.Parent, "id": i, "work": s.Work}}
	}
	raw, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
