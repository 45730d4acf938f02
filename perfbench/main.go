// Command perfbench is the repository's end-to-end benchmark of the exact
// triangle-counting path. For one workload it generates the input from a
// seed, hands the program only the text edge list, and times the public
// entry points a user calls — graph.ReadEdgeListText, tricount.CountSeq,
// tricount.Count (CETRIC, DITRIC, TK2D), tricount.LCC and
// tricount.StreamEdges — in a closed loop on two PEs, checking every answer.
// With -trace 1 it instead times each layer's public functions from its own
// code, one span per call, and reads the counters the program returns.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload rmat-skew --seed 42 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a readable
// summary and a provenance record. Result and span files go to -out.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	seconds float64
	trace   bool
	out     string // directory for the result and span files
	commit  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: rmat-skew or rgg-stream")
	seed := fs.Uint64("seed", 42, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring time; a started round is finished")
	traceFlag := fs.Int("trace", 0, "1: traced per-layer pass instead of the end-to-end loop")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and span files")
	commit := fs.String("commit", "unknown", "commit of the measured code, for the provenance record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{seconds: *seconds, trace: *traceFlag != 0, out: *out, commit: *commit}
	res, det, err := execute(cfg, makeInput(w, *seed), nil)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return report(stdout, stderr, cfg, res, det)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sampleInfo describes the samples behind a reported metric.
type sampleInfo struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// TailPct is the highest percentile with at least minBeyond samples
	// above it, 0 when there are too few samples for any.
	TailPct   float64 `json:"tail_pct"`
	TailValue float64 `json:"tail_value,omitempty"`
	// Values are the samples themselves, in measuring order, when few.
	Values []float64 `json:"values,omitempty"`
}

// maxListed is the most samples a metric lists individually.
const maxListed = 64

func describe(xs []float64) sampleInfo {
	if len(xs) == 0 {
		return sampleInfo{}
	}
	si := sampleInfo{N: len(xs), Median: median(xs)}
	if q, v, ok := tailPercentile(xs); ok {
		si.TailPct, si.TailValue = q, v
	}
	if len(xs) <= maxListed {
		si.Values = xs
	}
	return si
}

type provenance struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Rounds     int     `json:"rounds"`
	Vertices   int     `json:"vertices"`
	Edges      int     `json:"edges"`
	Triangles  uint64  `json:"triangles"`
	MaxDegree  int     `json:"max_degree"`
	Started    string  `json:"started"`
}

// details is everything reported besides the result line.
type details struct {
	Provenance provenance            `json:"provenance"`
	FailedFrac float64               `json:"failed_frac"`
	Errors     []string              `json:"errors,omitempty"`
	Samples    map[string]sampleInfo `json:"samples"`
	// OverheadS is, per traced call, its traced median wall minus its
	// untraced median wall in the same run.
	OverheadS map[string]float64 `json:"tracing_overhead_s,omitempty"`
	// SelfS is the summed self time per span name.
	SelfS    map[string]float64 `json:"self_s,omitempty"`
	Mapping  []mappingEntry     `json:"layer_mapping,omitempty"`
	SpanFile string             `json:"span_file,omitempty"`
}

type mappingEntry struct {
	Metric string `json:"metric"`
	Moves  string `json:"moves"`
	Where  string `json:"where"`
}

// execute runs one workload run. adjust, when set, is applied to the bench
// after set-up (tests use it to plant a wrong reference).
func execute(cfg config, in input, adjust func(*bench)) (result, details, error) {
	started := time.Now()
	b, err := newBench(in)
	if err != nil {
		return result{}, details{}, err
	}
	if adjust != nil {
		adjust(b)
	}
	det := details{
		Provenance: provenance{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			CPUModel: cpuModel(), Commit: cfg.commit, Workload: in.workload, Seed: in.seed,
			Seconds: cfg.seconds, Trace: cfg.trace, Vertices: b.g.NumVertices(), Edges: b.g.NumEdges(),
			Triangles: b.ref, MaxDegree: b.g.MaxDegree(), Started: started.UTC().Format(time.RFC3339),
		},
		Samples: make(map[string]sampleInfo),
	}
	res := result{Metrics: make(map[string]metricValue)}
	if cfg.trace {
		err = tracedRun(cfg, b, &res, &det)
	} else {
		endToEndRun(cfg, b, &res, &det)
	}
	if err != nil {
		// A failed cross-check means the layer numbers would describe other
		// work than the program's: report none.
		b.check("layer cross-check", false, err)
		res.Metrics = map[string]metricValue{}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	det.FailedFrac = float64(b.failed) / float64(max(b.attempted, 1))
	det.Errors = b.errs
	return res, det, nil
}

func endToEndRun(cfg config, b *bench, res *result, det *details) {
	words, frames := b.countAtScale()
	s := newSamples()
	_ = untilSpent(cfg.seconds, 3, func(r int) error {
		b.round(s, r, nil)
		return nil
	})
	det.Provenance.Rounds = s.rounds
	vals := map[string]float64{
		"batch_p50_ms":     median(s.intervals),
		"batch_p90_ms":     percentile(s.intervals, 90),
		"peak_rss_mb":      s.peakRSS(),
		"bottleneck_words": words,
		"max_msgs":         frames,
	}
	for _, c := range calls {
		vals[c.metric] = median(s.walls[c.metric])
		det.Samples[c.metric] = describe(s.walls[c.metric])
	}
	det.Samples["batch_p50_ms"] = describe(s.intervals)
	det.Samples["batch_p90_ms"] = describe(s.intervals)
	for label, xs := range s.peakMB {
		det.Samples["peak_rss_mb/"+label] = describe(xs)
	}
	det.Samples["bottleneck_words"] = describe([]float64{words})
	det.Samples["max_msgs"] = describe([]float64{frames})
	for _, m := range endToEnd {
		// NaN: no sample, every call feeding the metric failed.
		if v, ok := vals[m.name]; ok && !math.IsNaN(v) {
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
}

func tracedRun(cfg config, b *bench, res *result, det *details) error {
	b.streamEvery = 1 // every traced round reads the stream pass's Result
	li, err := newLayerInput(b.g, b.in.order)
	if err != nil {
		return err
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", b.in.workload, b.in.seed, time.Now().UnixNano()))
	untraced, traced := newSamples(), newSamples()
	layer := make(map[string][]float64)
	err = untilSpent(cfg.seconds, 2, func(r int) error {
		b.round(untraced, r, nil)
		var err error
		tr.do("round", func() {
			outs := b.round(traced, r, tr)
			for _, rc := range resultCalls {
				if outs[rc.label].res == nil {
					err = fmt.Errorf("traced %s call failed", rc.label)
					return
				}
			}
			var vals map[string]float64
			settle()
			tr.do("layers", func() {
				vals, err = li.layerPass(tr, checksFrom(b.ref, outs["ditric"].res, outs["cetric"].res))
			})
			if err != nil {
				return
			}
			for _, rc := range resultCalls {
				resultMetrics(rc.label, rc.phases, outs[rc.label].res, vals)
			}
			for k, x := range vals {
				layer[k] = append(layer[k], x)
			}
		})
		return err
	})
	det.Provenance.Rounds = traced.rounds
	if err != nil {
		return err
	}
	for _, m := range perLayer {
		xs, ok := layer[m.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: median(xs), Unit: m.unit}
		det.Samples[m.name] = describe(xs)
		det.Mapping = append(det.Mapping, mappingEntry{m.name, m.moves, m.where})
	}
	det.OverheadS = make(map[string]float64)
	for _, c := range calls {
		det.OverheadS[c.label] = median(traced.walls[c.metric]) - median(untraced.walls[c.metric])
	}
	det.SelfS = tr.selfTimes()
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	det.SpanFile = filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", b.in.workload, b.in.seed))
	return tr.write(det.SpanFile)
}

// report prints the readable summary, the provenance record and, last, the
// result line, writes the result file, and returns the exit code: non-zero
// when any call failed or returned a wrong answer.
func report(stdout, stderr io.Writer, cfg config, res result, det details) int {
	w := bufio.NewWriter(stdout)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		if v, ok := res.Metrics[m.name]; ok {
			si := det.Samples[m.name]
			fmt.Fprintf(w, "# %-40s %14.6g %-7s n=%d", m.name, v.Value, v.Unit, si.N)
			if si.TailPct > 0 {
				fmt.Fprintf(w, " p%g=%.6g", si.TailPct, si.TailValue)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "# failed_frac %g (%d of %d calls)\n", det.FailedFrac, res.Failed, res.Attempted)
	for _, e := range det.Errors {
		fmt.Fprintln(w, "# error:", e)
	}
	detLine, err := json.Marshal(det)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n%s\n", detLine, resLine)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeResultFile(cfg, det, detLine, resLine); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeResultFile(cfg config, det details, detLine, resLine []byte) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	t := 0
	if cfg.trace {
		t = 1
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", det.Provenance.Workload, det.Provenance.Seed, t))
	data := fmt.Sprintf("{\"details\":%s,\"result\":%s}\n", detLine, resLine)
	return os.WriteFile(path, []byte(data), 0o644)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
