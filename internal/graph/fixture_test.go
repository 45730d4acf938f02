package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// orient returns the ID-oriented out-lists A(v) = {u ∈ N(v) | u > v},
// sorted ascending (Neighbors is sorted, so the suffix is too).
func orient(g *graph.Graph) [][]graph.Vertex {
	out := make([][]graph.Vertex, g.NumVertices())
	for v := range out {
		nv := g.Neighbors(graph.Vertex(v))
		i := 0
		for i < len(nv) && nv[i] <= graph.Vertex(v) {
			i++
		}
		out[v] = nv[i:]
	}
	return out
}

// TestIntersectionCountsMatchFixtures drives the intersection primitives
// through a whole-graph triangle count on every shared fixture: each
// oriented edge (v,u) contributes |A(v) ∩ A(u)| triangles, and the total
// must equal the fixture's precomputed count. This pins CountIntersect,
// CountMerge, and ForEachCommon against an external ground truth instead of
// only against each other.
func TestIntersectionCountsMatchFixtures(t *testing.T) {
	for _, fix := range testgraph.All {
		g := fix.Build()
		out := orient(g)
		var viaGallop, viaMerge, viaBranchless, viaCommon uint64
		for _, av := range out {
			for _, u := range av {
				au := out[u]
				viaGallop += graph.CountIntersect(av, au)
				viaMerge += graph.CountMerge(av, au)
				viaBranchless += graph.CountMergeBranchless(av, au)
				graph.ForEachCommon(av, au, func(graph.Vertex) { viaCommon++ })
			}
		}
		if viaGallop != fix.Triangles || viaMerge != fix.Triangles ||
			viaBranchless != fix.Triangles || viaCommon != fix.Triangles {
			t.Errorf("%s: gallop=%d merge=%d branchless=%d common=%d, want %d",
				fix.Name, viaGallop, viaMerge, viaBranchless, viaCommon, fix.Triangles)
		}
	}
}

// TestHubBitmapCountsMatchFixtures drives the packed hub-bitmap engine
// through a whole-graph count on every fixture: with the hub threshold
// forced to 1 every vertex carries a bitmap (pure bitmap kernel), with the
// default threshold the dispatcher mixes kernels — both totals must equal
// the fixture's precomputed count.
func TestHubBitmapCountsMatchFixtures(t *testing.T) {
	for _, fix := range testgraph.All {
		g := fix.Build()
		for _, minDeg := range []int{1, graph.DefaultHubMinDegree, -1} {
			o := graph.Orient(g)
			if minDeg >= 0 {
				o.BuildHubs(minDeg)
			}
			var viaCount, viaEach, viaRow, viaRowEach uint64
			var m graph.RowMarker
			for v := 0; v < g.NumVertices(); v++ {
				nv := o.Out(graph.Vertex(v))
				for _, u := range nv {
					viaCount += o.CountListWith(nv, u)
					viaEach += o.CountPair(graph.Vertex(v), u)
				}
				viaRow += o.CountRow(&m, graph.Vertex(v))
				o.ForEachRowTriangle(&m, graph.Vertex(v), func(u, w graph.Vertex) { viaRowEach++ })
			}
			if viaCount != fix.Triangles || viaEach != fix.Triangles ||
				viaRow != fix.Triangles || viaRowEach != fix.Triangles {
				t.Errorf("%s minDeg=%d: CountListWith=%d CountPair=%d CountRow=%d ForEachRowTriangle=%d, want %d",
					fix.Name, minDeg, viaCount, viaEach, viaRow, viaRowEach, fix.Triangles)
			}
		}
	}
}

// TestRowSpaceCountsMatchFixtures distributes every fixture over 4 PEs and
// recounts type-1/2 triangles per PE through the row-translated layout
// (OutRows + CountRowsWith + the row-marker engine), checking it against the
// global-ID layout pair by pair — the translation must be an exact
// relabeling of every A-list, and the marker's local/ghost split must match
// the owners of the common neighbors.
func TestRowSpaceCountsMatchFixtures(t *testing.T) {
	for _, fix := range testgraph.All {
		g := fix.Build()
		if g.NumVertices() < 4 {
			continue
		}
		pt := part.Uniform(uint64(g.NumVertices()), 4)
		per := graph.ScatterEdges(pt, g.Edges())
		for rank := 0; rank < 4; rank++ {
			lg := graph.BuildLocal(pt, rank, per[rank])
			for i, gid := range lg.Ghosts() {
				lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
			}
			ori := graph.OrientLocal(lg)
			ori.BuildHubs(1) // force bitmaps everywhere they fit
			var m graph.RowMarker
			for r := 0; r < lg.Rows(); r++ {
				rv := int32(r)
				// Row-space lists must be exact relabelings of the global ones.
				av, avRows := ori.Out(rv), ori.OutRows(rv)
				if len(av) != len(avRows) {
					t.Fatalf("%s rank %d row %d: |Out|=%d |OutRows|=%d", fix.Name, rank, r, len(av), len(avRows))
				}
				back := make(map[graph.Vertex]bool, len(avRows))
				for i, ur := range avRows {
					if i > 0 && avRows[i-1] >= ur {
						t.Fatalf("%s rank %d row %d: OutRows not strictly ascending", fix.Name, rank, r)
					}
					back[lg.GID(int32(ur))] = true
				}
				for _, u := range av {
					if !back[u] {
						t.Fatalf("%s rank %d row %d: %d missing from row translation", fix.Name, rank, r, u)
					}
				}
				ori.MarkRows(&m, avRows)
				for _, ur := range avRows {
					ru := int32(ur)
					want := graph.CountMerge(av, ori.Out(ru))
					var wantLocal uint64
					graph.ForEachCommon(av, ori.Out(ru), func(w graph.Vertex) {
						if lg.IsLocal(w) {
							wantLocal++
						}
					})
					if got := ori.CountRowsWith(avRows, ru); got != want {
						t.Fatalf("%s rank %d (%d,%d): CountRowsWith=%d, want %d", fix.Name, rank, r, ru, got, want)
					}
					if got := ori.CountMarked(&m, ru); got != want {
						t.Fatalf("%s rank %d (%d,%d): CountMarked=%d, want %d", fix.Name, rank, r, ru, got, want)
					}
					if loc, gho := ori.CountMarkedSplit(&m, ru); loc != wantLocal || loc+gho != want {
						t.Fatalf("%s rank %d (%d,%d): CountMarkedSplit=(%d,%d), want (%d,%d)",
							fix.Name, rank, r, ru, loc, gho, wantLocal, want-wantLocal)
					}
					var each uint64
					ori.ForEachMarked(&m, ru, func(graph.Vertex) { each++ })
					if each != want {
						t.Fatalf("%s rank %d (%d,%d): ForEachMarked=%d, want %d", fix.Name, rank, r, ru, each, want)
					}
				}
				m.Clear()
			}
		}
	}
}

// TestTranslateRowsMatchesGhostMap checks the sorted-gallop translation
// against the ghost map row by row on every fixture.
func TestTranslateRowsMatchesGhostMap(t *testing.T) {
	for _, fix := range testgraph.All {
		g := fix.Build()
		if g.NumVertices() < 4 {
			continue
		}
		pt := part.Uniform(uint64(g.NumVertices()), 4)
		per := graph.ScatterEdges(pt, g.Edges())
		for rank := 0; rank < 4; rank++ {
			lg := graph.BuildLocal(pt, rank, per[rank])
			var tr graph.RowTranslator
			for r := 0; r < lg.Rows(); r++ {
				list := lg.RowNeighbors(int32(r))
				rows, nLoc := lg.TranslateRows(&tr, list)
				if len(rows) != len(list) {
					t.Fatalf("%s rank %d row %d: translation dropped known rows (%d vs %d)",
						fix.Name, rank, r, len(rows), len(list))
				}
				locals := 0
				seen := make(map[uint64]bool, len(rows))
				for i, ur := range rows {
					if i > 0 && rows[i-1] >= ur {
						t.Fatalf("%s rank %d row %d: translated rows not ascending", fix.Name, rank, r)
					}
					if int(ur) < lg.NLocal() {
						locals++
					}
					seen[ur] = true
				}
				if locals != nLoc {
					t.Fatalf("%s rank %d row %d: nLocal=%d, counted %d", fix.Name, rank, r, nLoc, locals)
				}
				for _, x := range list {
					if !seen[uint64(lg.Row(x))] {
						t.Fatalf("%s rank %d row %d: %d (row %d) missing", fix.Name, rank, r, x, lg.Row(x))
					}
				}
			}
		}
	}
}
