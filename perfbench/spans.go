package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one recorded interval of a traced run: a call from the
// benchmark into one layer of the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// StartUS and EndUS are microseconds since the recorder's origin.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder keeps spans in memory; they are written out once, at exit.
// It is safe for concurrent use (the traced core pass fans apps out).
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	r     *recorder
	s     span
	start time.Time
}

// start opens a span named name under parent (0 for a root) in op. A
// nil recorder records nothing and returns a nil span.
func (r *recorder) start(op, parent int, name string) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	now := time.Now()
	return &openSpan{r: r, start: now, s: span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartUS: float64(now.Sub(r.origin)) / float64(time.Microsecond),
	}}
}

// id is the span's identifier, for parenting children.
func (o *openSpan) id() int {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and returns its duration.
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	now := time.Now()
	o.s.EndUS = float64(now.Sub(o.r.origin)) / float64(time.Microsecond)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
	return now.Sub(o.start)
}

// selfTimes returns each span's self time in milliseconds: its duration
// minus the part of it that its children cover. Children running in
// parallel are merged, so overlapping children are not subtracted
// twice.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		covered := coveredUS(s, children[s.ID])
		out[s.ID] = (s.EndUS - s.StartUS - covered) / 1000
	}
	return out
}

// coveredUS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredUS(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := 0.0
	curLo, curHi := -1.0, -1.0
	for _, v := range iv {
		if v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// durations returns the durations (ms) of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, (s.EndUS-s.StartUS)/1000)
		}
	}
	return out
}

// write saves the spans as JSON under .perfbench/ and returns the path.
func (r *recorder) write(workload string, seed uint64) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	path := filepath.Join(filepath.Dir(stageRoot), "spans-"+workload+"-"+strconv.FormatUint(seed, 10)+".json")
	data, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
