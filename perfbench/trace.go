package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced call: a public entry point of a program layer, or a
// grouping span of the benchmark's own (a round, a layer pass).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends, so recording a span costs two clock reads and an append.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
	open  []int // indices into spans of the spans still open, innermost last
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// do runs fn inside a span named name, child of the innermost open span,
// and returns fn's wall time.
func (t *tracer) do(name string, fn func()) time.Duration {
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Name: name, Run: t.run})
	t.open = append(t.open, i)
	start := time.Now()
	t.spans[i].Start = start.Sub(t.epoch).Nanoseconds()
	fn()
	end := time.Now()
	t.spans[i].End = end.Sub(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
	return end.Sub(start)
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		d := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		self[s.Name] += float64(d) / 1e9
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores every span plus the per-name self times as one JSON file.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Run   string             `json:"run"`
		SelfS map[string]float64 `json:"self_s"`
		Spans []span             `json:"spans"`
	}{t.run, t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
