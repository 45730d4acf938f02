package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
)

const (
	pes         = 2    // PEs of every timed distributed call
	countPEs    = 16   // PEs of the count-only Fig. 5 pass
	streamBatch = 4096 // edges per batch of the stream pass
	maxErrs     = 5    // failure messages kept for the report
)

// bench holds one run's ingested graph, its reference answers, and the
// running tally of calls attempted and failed.
type bench struct {
	in         input
	g          *graph.Graph
	ref        uint64   // tricount.CountSeq on the ingested graph
	refDeltas  []uint64 // core.SeqDeltas on the ingested graph
	initialRef uint64   // tricount.CountSeq on the stream pass's initial graph
	opt        tricount.Options
	// streamEvery: the stream pass runs on every streamEvery-th round.
	streamEvery int

	attempted, failed int
	errs              []string
}

func newBench(in input) (*bench, error) {
	g, err := graph.ReadEdgeListText(bytes.NewReader(in.text))
	if err != nil {
		return nil, fmt.Errorf("ingest %s: %w", in.workload, err)
	}
	ref := tricount.CountSeq(g)
	seqRef, deltas := core.SeqDeltas(g)
	if seqRef != ref {
		return nil, fmt.Errorf("reference disagrees: CountSeq %d, SeqDeltas %d", ref, seqRef)
	}
	b := &bench{in: in, g: g, ref: ref, refDeltas: deltas, opt: tricount.Options{PEs: pes, Threads: 1},
		streamEvery: max(in.streamEvery, 1)}
	b.initialRef = tricount.CountSeq(graph.FromEdges(g.NumVertices(), b.initialHalf()))
	return b, nil
}

// check counts one attempted call and records it as failed when it errored
// or its answer was wrong.
func (b *bench) check(what string, ok bool, err error) {
	b.attempted++
	if err == nil && !ok {
		err = fmt.Errorf("wrong answer")
	}
	if err != nil {
		b.failed++
		if len(b.errs) < maxErrs {
			b.errs = append(b.errs, what+": "+err.Error())
		}
	}
}

// outcome is one timed call. res is the program's own report of the call,
// kept for the traced pass. intervals, for the insert pass, are the times
// between successive pulls of its batch source: the per-batch update
// latency, taken from outside the program.
type outcome struct {
	wall      time.Duration
	res       *tricount.Result
	intervals []time.Duration
}

// call is one public entry point in the closed loop. label names it in spans
// and in the per-layer metrics; metric is the end-to-end wall it feeds.
type call struct {
	label, metric string
	p2            bool // runs on pes PEs: peak RSS is taken over these
	run           func(b *bench, tr *tracer) outcome
}

var calls = []call{
	{"setup", "setup_s", false, (*bench).parse},
	{"seq", "seq_s", false, (*bench).seq},
	{"cetric", "cetric_s", true, countCall(tricount.AlgoCetric)},
	{"ditric", "ditric_s", true, countCall(tricount.AlgoDiTric)},
	{"tk2d", "tk2d_s", true, countCall(tricount.AlgoTK2D)},
	{"lcc", "lcc_s", true, (*bench).lcc},
	{"stream-initial", "stream_initial_s", true, (*bench).streamInitial},
	{"stream", "stream_s", true, (*bench).stream},
}

// timed runs fn, inside a span named name when tracing.
func timed(tr *tracer, name string, fn func()) time.Duration {
	if tr != nil {
		return tr.do(name, fn)
	}
	start := time.Now()
	fn()
	return time.Since(start)
}

func (b *bench) parse(tr *tracer) outcome {
	var g *graph.Graph
	var err error
	d := timed(tr, "graph.ReadEdgeListText", func() { g, err = graph.ReadEdgeListText(bytes.NewReader(b.in.text)) })
	b.check("setup", err == nil && g.NumVertices() == b.g.NumVertices() && g.NumEdges() == b.g.NumEdges(), err)
	return outcome{wall: d}
}

func (b *bench) seq(tr *tracer) outcome {
	var c uint64
	d := timed(tr, "tricount.CountSeq", func() { c = tricount.CountSeq(b.g) })
	b.check("seq", c == b.ref, nil)
	return outcome{wall: d}
}

func countCall(algo tricount.Algorithm) func(*bench, *tracer) outcome {
	return func(b *bench, tr *tracer) outcome {
		var res *tricount.Result
		var err error
		d := timed(tr, "tricount.Count/"+string(algo), func() { res, err = tricount.Count(b.g, algo, b.opt) })
		b.check(string(algo), err == nil && res.Count == b.ref, err)
		return outcome{wall: d, res: res}
	}
}

func (b *bench) lcc(tr *tracer) outcome {
	var res *tricount.Result
	var err error
	d := timed(tr, "tricount.LCC/cetric", func() { _, res, err = tricount.LCC(b.g, tricount.AlgoCetric, b.opt) })
	b.check("lcc", err == nil && res.Count == b.ref && slices.Equal(res.Deltas, b.refDeltas), err)
	return outcome{wall: d, res: res}
}

// initialHalf is the stream pass's initial graph: the first half of the
// arrival order. The rest are the inserts.
func (b *bench) initialHalf() []graph.Edge { return b.in.order[:len(b.in.order)/2] }

// streamInitial loads and counts only the initial graph through the stream
// driver, in streamBatch-edge batches, with DITRIC: the time a streaming
// user waits for the first count.
func (b *bench) streamInitial(tr *tracer) outcome {
	var sr *tricount.StreamResult
	var err error
	d := timed(tr, "tricount.StreamEdges/ditric/initial", func() {
		sr, err = tricount.StreamEdges(b.g.NumVertices(), tricount.AlgoDiTric, batches(b.initialHalf(), streamBatch), nil, b.opt)
	})
	b.check("stream initial", err == nil && sr.Count == b.initialRef && sr.Initial == b.initialRef, err)
	return outcome{wall: d}
}

// stream loads the initial graph and inserts the rest of the arrival order
// in streamBatch-edge batches, with DITRIC.
func (b *bench) stream(tr *tracer) outcome {
	next := batches(b.in.order[len(b.initialHalf()):], streamBatch)
	// The driver pulls the source from its own goroutine; pulls is read only
	// after StreamEdges has returned, which orders it after the last pull.
	var pulls []time.Time
	inserts := func() []graph.Edge {
		pulls = append(pulls, time.Now())
		return next()
	}
	var sr *tricount.StreamResult
	var err error
	d := timed(tr, "tricount.StreamEdges/ditric", func() {
		sr, err = tricount.StreamEdges(b.g.NumVertices(), tricount.AlgoDiTric, batches(b.initialHalf(), streamBatch), inserts, b.opt)
	})
	ok := err == nil && sr.Count == b.ref && sr.Initial == b.initialRef && len(pulls) > 1
	if ok {
		sum := sr.Initial
		for _, x := range sr.Deltas {
			sum += x
		}
		ok = sum == sr.Count
	}
	b.check("stream", ok, err)
	if !ok {
		return outcome{wall: d}
	}
	o := outcome{wall: d, res: sr.Res}
	for i := 1; i < len(pulls); i++ {
		o.intervals = append(o.intervals, pulls[i].Sub(pulls[i-1]))
	}
	return o
}

// batches yields consecutive slices of at most size edges, then nil.
func batches(edges []graph.Edge, size int) func() []graph.Edge {
	return func() []graph.Edge {
		n := min(size, len(edges))
		b := edges[:n]
		edges = edges[n:]
		if n == 0 {
			return nil
		}
		return b
	}
}

// countAtScale runs CETRIC once at countPEs PEs for the paper's Fig. 5
// counts: bottleneck payload words and most messages sent by one PE. More
// PEs than cores would time the scheduler, so no wall is kept. Both are NaN
// when the call fails.
func (b *bench) countAtScale() (words, frames float64) {
	res, err := tricount.Count(b.g, tricount.AlgoCetric, tricount.Options{PEs: countPEs, Threads: 1})
	b.check("cetric p=16", err == nil && res.Count == b.ref, err)
	if err != nil {
		return math.NaN(), math.NaN()
	}
	return float64(res.Agg.MaxPayloadWords), float64(res.Agg.MaxSentFrames)
}

// settle collects garbage, returns freed memory to the OS and resets the
// peak-RSS mark, so each timed call starts from the same heap and its peak
// is its own.
func settle() {
	debug.FreeOSMemory()
	// Linux resets VmHWM to the current RSS on "5"; without it peakRSSMB
	// reports the process-lifetime peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
