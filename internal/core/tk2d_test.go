package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// TestTK2DEquivalence pins TK2D to the sequential oracle on every fixture
// across the full p × Threads grid — square and rectangular PE counts, both
// the blocking and the pipelined (Overlap) exchange schedule.
func TestTK2DEquivalence(t *testing.T) {
	for _, tg := range testgraph.All {
		for _, p := range []int{1, 4, 6, 8, 9, 16} {
			for _, threads := range []int{1, 4} {
				for _, overlap := range []bool{false, true} {
					res, err := Run(AlgoTK2D, tg.Build(),
						Config{P: p, Threads: threads, Overlap: overlap})
					if err != nil {
						t.Fatalf("%s p=%d threads=%d overlap=%v: %v",
							tg.Name, p, threads, overlap, err)
					}
					if res.Count != tg.Triangles {
						t.Errorf("%s p=%d threads=%d overlap=%v: count %d, want %d",
							tg.Name, p, threads, overlap, res.Count, tg.Triangles)
					}
				}
			}
		}
	}
}

// TestTK2DMatches1DCounters cross-validates the two geometries directly:
// identical counts from TK2D, DITRIC, and CETRIC on every fixture.
func TestTK2DMatches1DCounters(t *testing.T) {
	for _, tg := range testgraph.All {
		tk, err := Run(AlgoTK2D, tg.Build(), Config{P: 9, Threads: 2})
		if err != nil {
			t.Fatalf("%s tk2d: %v", tg.Name, err)
		}
		for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
			res, err := Run(algo, tg.Build(), Config{P: 9, Threads: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", tg.Name, algo, err)
			}
			if res.Count != tk.Count {
				t.Errorf("%s: tk2d=%d %s=%d", tg.Name, tk.Count, algo, res.Count)
			}
		}
	}
}

// TestTK2DHubKernels drives both branches of the row-marker engine on the
// 2D blocks: a threshold of 1 gives every non-empty B row a hub bitmap (up
// to the memory cap), so wedges whose B row is longer than the marked A row
// probe the bitmap; a negative threshold disables bitmaps and every wedge
// probes the marker; 0 is the default index. Counts must equal SeqCount and
// collected triangles SeqEnumerate's set, on square and rectangular grids,
// blocking and pipelined. The probe counters guard against a vacuous pass.
func TestTK2DHubKernels(t *testing.T) {
	type named struct {
		name string
		g    *graph.Graph
	}
	graphs := []named{{"rmat-12", gen.RMAT(gen.DefaultRMAT(12, 7))}}
	for _, fix := range testgraph.All {
		graphs = append(graphs, named{fix.Name, fix.Build()})
	}
	ps := []int{1, 2, 3, 4, 6, 9}
	if testing.Short() {
		ps = []int{1, 3, 4, 6}
	}
	for _, ng := range graphs {
		want := SeqCount(ng.g)
		var tris [][3]uint64
		SeqEnumerate(ng.g, func(v, u, w graph.Vertex) {
			tris = append(tris, [3]uint64{v, u, w})
		})
		oracle := triangleKeys(t, tris)
		for _, hub := range []int{-1, 0, 1} {
			var probes graph.ProbeCounts
			for _, p := range ps {
				for _, threads := range []int{1, 4} {
					for _, overlap := range []bool{false, true} {
						for _, collect := range []bool{false, true} {
							name := fmt.Sprintf("%s/hub=%d/p=%d/threads=%d/overlap=%v/collect=%v",
								ng.name, hub, p, threads, overlap, collect)
							res, err := Run(AlgoTK2D, ng.g, Config{P: p, Threads: threads,
								Overlap: overlap, Collect: collect, HubThreshold: hub})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if res.Count != want {
								t.Fatalf("%s: count %d, want %d", name, res.Count, want)
							}
							if collect && !slices.Equal(triangleKeys(t, res.Triangles), oracle) {
								t.Fatalf("%s: collected %d triangles, not SeqEnumerate's %d",
									name, len(res.Triangles), len(oracle))
							}
							if hub < 0 && res.Probes.Hub != 0 {
								t.Fatalf("%s: hub index disabled but %d hub probes", name, res.Probes.Hub)
							}
							if want > 0 && res.Probes == (graph.ProbeCounts{}) {
								t.Fatalf("%s: %d triangles but no wedge probed", name, want)
							}
							probes.Add(res.Probes)
						}
					}
				}
			}
			if ng.name == "rmat-12" && (probes.Marker == 0 || (hub == 1 && probes.Hub == 0)) {
				t.Errorf("%s hub=%d: probes %+v; want the marker branch, and at threshold 1 the hub branch, exercised",
					ng.name, hub, probes)
			}
		}
	}
}

// triangleKeys packs each triangle's sorted corners into one word (21 bits
// per corner) and sorts the keys, so triangle sets from different corner
// orders compare with slices.Equal.
func triangleKeys(t *testing.T, tris [][3]uint64) []uint64 {
	t.Helper()
	keys := make([]uint64, len(tris))
	for i, tr := range tris {
		slices.Sort(tr[:])
		if tr[2] >= 1<<21 {
			t.Fatalf("triangle %v: corner too large to pack", tr)
		}
		keys[i] = tr[0]<<42 | tr[1]<<21 | tr[2]
	}
	slices.Sort(keys)
	return keys
}

// TestTK2DCollect checks the collected triangle set equals the oracle's —
// on a square and a rectangular grid, blocking and pipelined.
func TestTK2DCollect(t *testing.T) {
	tg, ok := testgraph.ByName("cliques")
	if !ok {
		t.Fatal("cliques fixture missing")
	}
	fix := tg.Build()
	want, err := Run(AlgoDiTric, fix, Config{P: 4, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	norm := func(tris [][3]uint64) [][3]uint64 {
		out := slices.Clone(tris)
		slices.SortFunc(out, func(a, b [3]uint64) int {
			for i := range a {
				if a[i] != b[i] {
					return int(int64(a[i]) - int64(b[i]))
				}
			}
			return 0
		})
		return out
	}
	exp := norm(want.Triangles)
	for _, p := range []int{4, 6} {
		for _, overlap := range []bool{false, true} {
			res, err := Run(AlgoTK2D, fix,
				Config{P: p, Collect: true, Threads: 2, Overlap: overlap})
			if err != nil {
				t.Fatalf("p=%d overlap=%v: %v", p, overlap, err)
			}
			got := norm(res.Triangles)
			if !slices.Equal(got, exp) {
				t.Fatalf("p=%d overlap=%v: triangle sets differ: got %d, want %d",
					p, overlap, len(got), len(exp))
			}
		}
	}
}

// TestTK2DConfigValidation pins what is accepted and what is rejected:
// every P ≥ 1 now factors into a rectangular grid (non-square counts
// included), while LCC, 1D partition overrides, and unknown codecs error.
func TestTK2DConfigValidation(t *testing.T) {
	g := gen.Complete(10)
	const wantTris = 120 // C(10,3)
	for _, p := range []int{2, 3, 5, 8, 12} {
		res, err := Run(AlgoTK2D, g, Config{P: p})
		if err != nil {
			t.Errorf("p=%d: rectangular grid rejected: %v", p, err)
			continue
		}
		if res.Count != wantTris {
			t.Errorf("p=%d: count %d, want %d", p, res.Count, wantTris)
		}
	}
	if _, err := Run(AlgoTK2D, g, Config{P: 4, LCC: true}); err == nil {
		t.Error("want error for LCC under tk2d")
	}
	if _, err := Run(AlgoTK2D, g, Config{P: 4, Partition: part.Uniform(10, 4)}); err == nil {
		t.Error("want error for 1D partition override under tk2d")
	}
	if _, err := Run(AlgoTK2D, g, Config{P: 4, Codec: "nope"}); err == nil {
		t.Error("want error for unknown codec policy")
	}
}

// TestTK2DExchangeFoldsIntoGlobal pins the stopwatch attribution the 2D
// body relies on: the collective exchange reports under global/exchange AND
// folds into the parent global phase — wall time and communication both —
// so cmd/tricount -v shows 1D and 2D runs under the same top-level keys.
func TestTK2DExchangeFoldsIntoGlobal(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 41))
	res, err := Run(AlgoTK2D, g, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := res.Phases[PhaseGlobalExchange]
	if !ok || sub <= 0 {
		t.Fatalf("global/exchange phase missing or empty: %v", res.Phases)
	}
	if parent := res.Phases[PhaseGlobal]; parent < sub {
		t.Fatalf("global (%v) does not cover its exchange sub-phase (%v)", parent, sub)
	}
	if res.PhaseComm[PhaseGlobalExchange].TotalEncodedBytes == 0 {
		t.Fatal("exchange sub-phase carries no traffic")
	}
	if res.PhaseComm[PhaseGlobal].TotalEncodedBytes < res.PhaseComm[PhaseGlobalExchange].TotalEncodedBytes {
		t.Fatal("exchange traffic did not fold into the global phase")
	}
	// The counting side of a round must stay communication-free.
	if res.PhaseComm[PhaseLocal].TotalPayload != 0 {
		t.Fatalf("tk2d local counting shipped %d payload words",
			res.PhaseComm[PhaseLocal].TotalPayload)
	}
}

// TestTK2DPipelinedMetersOverlap pins the pipelined schedule's metering:
// with Overlap set and more than one round, counting wall spent while the
// next round's broadcasts are in flight lands in Metrics.OverlapNs.
func TestTK2DPipelinedMetersOverlap(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 7))
	res, err := Run(AlgoTK2D, g, Config{P: 9, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.TotalOverlapNs == 0 {
		t.Fatal("pipelined tk2d metered no overlap")
	}
	blocking, err := Run(AlgoTK2D, g, Config{P: 9})
	if err != nil {
		t.Fatal(err)
	}
	if blocking.Agg.TotalOverlapNs != 0 {
		t.Fatalf("blocking tk2d metered overlap: %d ns", blocking.Agg.TotalOverlapNs)
	}
	if res.Count != blocking.Count {
		t.Fatalf("pipelined count %d != blocking count %d", res.Count, blocking.Count)
	}
}

// TestTK2DSinglePEHasNoCommunication: the 1×1 grid runs entirely locally.
func TestTK2DSinglePEHasNoCommunication(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 97))
	res, err := Run(AlgoTK2D, g, Config{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.TotalPayload != 0 || res.Agg.TotalFrames != 0 {
		t.Fatalf("tk2d at p=1 communicated: %+v", res.Agg)
	}
	if res.Count == 0 {
		t.Fatal("no triangles counted")
	}
}
