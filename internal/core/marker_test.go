package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// typeOracle classifies triangles by the owner ranks of their corners under
// pt: type 1 has all three corners on one PE, type 2 on two PEs, type 3 on
// three.
func typeOracle(pt *part.Partition, tris [][3]graph.Vertex) [3]uint64 {
	var tc [3]uint64
	for _, t := range tris {
		a, b, c := pt.Rank(t[0]), pt.Rank(t[1]), pt.Rank(t[2])
		switch {
		case a == b && b == c:
			tc[0]++
		case a == b || b == c || a == c:
			tc[1]++
		default:
			tc[2]++
		}
	}
	return tc
}

// TestCetricTypeSplitMatchesOracle checks the count-only type split of
// CETRIC's local phase — t1/t2 read off the row-marker probes split at
// NLocal, never enumerated — against an independent classification of the
// triangles the same configuration collects, over p × Threads × Overlap ×
// HubThreshold. The probe counters guard against a vacuous pass: both the
// hub-bitmap branch and the marker branch must have closed wedges, and with
// the hub index disabled only the marker may.
func TestCetricTypeSplitMatchesOracle(t *testing.T) {
	type named struct {
		name string
		g    *graph.Graph
	}
	graphs := []named{{"rmat-12", gen.RMAT(gen.DefaultRMAT(12, 7))}}
	for _, fix := range testgraph.All {
		graphs = append(graphs, named{fix.Name, fix.Build()})
	}
	ps := []int{1, 2, 3, 4, 8}
	hubs := []int{0, 1, -1}
	if testing.Short() {
		ps = []int{1, 3, 8}
	}
	for _, hub := range hubs {
		var probes graph.ProbeCounts
		for _, ng := range graphs {
			want := SeqCount(ng.g)
			for _, p := range ps {
				if p > ng.g.NumVertices() {
					continue
				}
				pt := part.Uniform(uint64(ng.g.NumVertices()), p)
				for _, threads := range []int{1, 4} {
					for _, overlap := range []bool{false, true} {
						name := fmt.Sprintf("%s/hub=%d/p=%d/threads=%d/overlap=%v", ng.name, hub, p, threads, overlap)
						cfg := Config{P: p, Threads: threads, Overlap: overlap, HubThreshold: hub}
						res, err := Run(AlgoCetric, ng.g, cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						cfg.Collect = true
						col, err := Run(AlgoCetric, ng.g, cfg)
						if err != nil {
							t.Fatalf("%s collect: %v", name, err)
						}
						if res.Count != want || uint64(len(col.Triangles)) != want {
							t.Fatalf("%s: count %d, collected %d, want %d", name, res.Count, len(col.Triangles), want)
						}
						oracle := typeOracle(pt, col.Triangles)
						if res.TypeCounts != oracle || col.TypeCounts != oracle {
							t.Fatalf("%s: type counts %v (count-only) %v (collect), oracle %v",
								name, res.TypeCounts, col.TypeCounts, oracle)
						}
						if hub < 0 && res.Probes.Hub != 0 {
							t.Fatalf("%s: hub index disabled but %d hub probes", name, res.Probes.Hub)
						}
						probes.Add(res.Probes)
					}
				}
			}
		}
		if probes.Marker == 0 || (hub >= 0 && probes.Hub == 0) {
			t.Errorf("hub=%d: probes %+v; want both engine branches exercised", hub, probes)
		}
	}
}

// TestMarkerReentrancyTinyThreshold pins the receive marker's separation
// from the local sweep's: at Threshold 1 every send flushes and polls, so
// receive handlers dispatch in the middle of a local row. Sharing one
// marker between the two paths would wipe the row's marks and miscount.
func TestMarkerReentrancyTinyThreshold(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 7))
	want := SeqCount(g)
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
		for _, p := range []int{2, 4, 8} {
			res, err := Run(algo, g, Config{P: p, Threshold: 1})
			if err != nil {
				t.Fatalf("%s p=%d: %v", algo, p, err)
			}
			if res.Count != want {
				t.Errorf("%s p=%d Threshold=1: count %d, want %d", algo, p, res.Count, want)
			}
		}
	}
}
