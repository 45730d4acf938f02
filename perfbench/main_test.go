package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// fixture is a small skewed graph (R-MAT scale 10) that has hub rows, a cut
// and triangles of every type at p=2.
func fixture() input {
	return inputFrom("fixture", 7, gen.RMAT(gen.DefaultRMAT(10, 7)))
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		want   float64 // 0: no percentile qualifies
		wantOK bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		q, v, ok := tailPercentile(seq(c.n))
		if ok != c.wantOK || q != c.want {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, q, ok, c.want, c.wantOK)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%g=%g has %d samples beyond it", c.n, q, v, beyond)
		}
	}
	// Ties at the top leave nothing strictly beyond any percentile.
	same := make([]float64, 500)
	if q, _, ok := tailPercentile(same); ok {
		t.Errorf("constant samples: got p%g, want none", q)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 90); got != 5 {
		t.Errorf("p90 = %g, want 5", got)
	}
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res
}

func TestEndToEndReportsEveryMetric(t *testing.T) {
	cfg := config{out: t.TempDir()}
	res, det, err := execute(cfg, fixture(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := report(&out, &errOut, cfg, res, det); code != 0 {
		t.Fatalf("exit %d, errors %v, stderr %s", code, det.Errors, errOut.String())
	}
	got := lastLine(t, out.String())
	if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
		t.Fatalf("result %+v", got)
	}
	if len(got.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(got.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		v, ok := got.Metrics[m.name]
		if !ok || v.Unit != m.unit || !(v.Value > 0) {
			t.Errorf("metric %s = %+v (present %v), want a positive value in %s", m.name, v, ok, m.unit)
		}
	}
}

func TestWrongReferenceFailsTheRun(t *testing.T) {
	cfg := config{out: t.TempDir()}
	res, det, err := execute(cfg, fixture(), func(b *bench) { b.ref++ })
	if err != nil {
		t.Fatal(err)
	}
	if det.FailedFrac <= 0 || res.Failed == 0 || res.Correct {
		t.Fatalf("failed_frac %g, result %+v: a wrong reference must fail the run", det.FailedFrac, res)
	}
	var out, errOut bytes.Buffer
	if code := report(&out, &errOut, cfg, res, det); code == 0 {
		t.Fatal("exit code 0 for a run with wrong answers")
	}
	if lastLine(t, out.String()).Correct {
		t.Fatal("result line says correct")
	}
}

func TestTracedPassCrossChecks(t *testing.T) {
	cfg := config{trace: true, out: t.TempDir()}
	res, det, err := execute(cfg, fixture(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed: %v", det.Errors)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("per-layer metric %s missing", m.name)
		}
	}
	if res.Metrics["graph.hub_rows"].Value == 0 {
		t.Error("fixture has no hub rows; the kernel check would not cover the bitmap path")
	}
	if _, err := os.Stat(det.SpanFile); err != nil {
		t.Errorf("span file: %v", err)
	}
}

func TestReplayMatchesProgramTraffic(t *testing.T) {
	in := fixture()
	b, err := newBench(in)
	if err != nil {
		t.Fatal(err)
	}
	ditric := countCall("ditric")(b, nil).res
	cetric := countCall("cetric")(b, nil).res
	want := checksFrom(b.ref, ditric, cetric)
	if want.ditricPayload == 0 {
		t.Fatal("fixture ships nothing; the check would be vacuous")
	}
	li, err := newLayerInput(b.g, in.order)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer("test")
	if _, err := li.layerPass(tr, want); err != nil {
		t.Fatalf("layer pass on the program's own numbers: %v", err)
	}
	for _, bad := range []checks{
		{ref: want.ref, ditricPayload: want.ditricPayload + 1, cetricLocal: want.cetricLocal},
		{ref: want.ref, ditricPayload: want.ditricPayload, cetricLocal: want.cetricLocal + 1},
		{ref: want.ref + 1, ditricPayload: want.ditricPayload, cetricLocal: want.cetricLocal},
	} {
		if _, err := li.layerPass(tr, bad); err == nil {
			t.Errorf("layer pass accepted %+v against the program's %+v", bad, want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
	}}
	self := tr.selfTimes()
	want := map[string]float64{"round": 50e-9, "a": 30e-9, "b": 20e-9, "c": 10e-9}
	for k, w := range want {
		if d := self[k] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("self(%s) = %g, want %g", k, self[k], w)
		}
	}
}

func TestInputIsSeeded(t *testing.T) {
	w, err := workloadByName("rmat-skew")
	if err != nil {
		t.Fatal(err)
	}
	w.graph = func(seed uint64) *graph.Graph { return gen.RMAT(gen.DefaultRMAT(8, seed)) }
	a, b, c := makeInput(w, 1), makeInput(w, 1), makeInput(w, 2)
	if !bytes.Equal(a.text, b.text) {
		t.Error("same seed, different input")
	}
	if bytes.Equal(a.text, c.text) {
		t.Error("different seeds, same input")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload lists
// in step with the tables this command reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, e := range got {
			if w := want[i]; e.Name != w.name || e.Unit != w.unit || e.Better != w.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, e, w)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
