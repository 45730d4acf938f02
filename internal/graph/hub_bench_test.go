package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
)

// Hub-row benchmarks on the RHG/RGG stand-ins: intersections against the
// heaviest real rows, adaptive engine (hub bitmaps built) vs the plain merge
// oracle. The by-ID orientation is the hub-preserving case (TriC-style rows
// and ghost rows keep large lists); the degree orientation is the
// everything-small case the dispatcher must not regress.
func hubBenchGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"rhg-2^12", gen.RHG(gen.RHGConfig{N: 1 << 12, AvgDegree: 16, Gamma: 2.8, Seed: 42})},
		{"rgg2d-2^12", gen.RGG2D(1<<12, 16, 42)},
	}
}

var hubSink uint64

// BenchmarkHubRows measures Σ_u |N⁺(hub) ∩ N⁺(u)| over every in-pair of the
// heaviest by-ID-oriented row — exactly the work a hub row generates, once
// per in-edge.
func BenchmarkHubRows(b *testing.B) {
	for _, spec := range hubBenchGraphs() {
		o := graph.OrientByID(spec.g)
		hub := graph.Vertex(0)
		for v := 0; v < spec.g.NumVertices(); v++ {
			if o.OutDegree(graph.Vertex(v)) > o.OutDegree(hub) {
				hub = graph.Vertex(v)
			}
		}
		probes := spec.g.Neighbors(hub)
		b.Run(spec.name+"/merge", func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				for _, u := range probes {
					sink += graph.CountMerge(o.Out(u), o.Out(hub))
				}
			}
			hubSink = sink
		})
		b.Run(spec.name+"/adaptive", func(b *testing.B) {
			o.BuildHubs(graph.DefaultHubMinDegree)
			b.ResetTimer()
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				for _, u := range probes {
					sink += o.CountPair(u, hub)
				}
			}
			hubSink = sink
		})
	}
}

// BenchmarkAdaptiveIntersectSteadyState is the allocation-regression gate
// for the compute side: a full adaptive EDGE ITERATOR pass (hub bitmaps,
// galloping, merge) over a degree-oriented graph must report 0 allocs/op,
// and so must the rowmarker sub-benchmark — the same pass over both graphs
// through the row-marker engine, as SeqCount runs it — and the blockrow
// sub-benchmark — the same triangles counted through Block.CountRow over a
// 1×1 TK2D grid, as a TK2D round counts its block. The indexes and the
// marker are built before the timer starts; the counting loops themselves
// own no memory.
func BenchmarkAdaptiveIntersectSteadyState(b *testing.B) {
	var oris []*graph.OutGraph
	var blocks [][2]*graph.Block
	for _, spec := range hubBenchGraphs() {
		g2, err := part.NewGrid2D(uint64(spec.g.NumVertices()), 1)
		if err != nil {
			b.Fatal(err)
		}
		own := graph.BuildBlock2D(g2, 0, graph.ScatterEdges2D(g2, spec.g.Edges(), 1)[0], 1)
		bt := own.Transpose(1)
		bt.BuildHubs(graph.DefaultHubMinDegree, 1)
		blocks = append(blocks, [2]*graph.Block{own, bt})
		o := graph.Orient(spec.g)
		o.BuildHubs(graph.DefaultHubMinDegree)
		oris = append(oris, o)
		n := spec.g.NumVertices()
		b.Run(spec.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				for v := 0; v < n; v++ {
					for _, u := range o.Out(graph.Vertex(v)) {
						sink += o.CountPair(graph.Vertex(v), u)
					}
				}
			}
			hubSink = sink
		})
	}
	b.Run("rowmarker", func(b *testing.B) {
		var m graph.RowMarker
		rowMarkerPass(oris, &m) // sizes the marker
		b.ResetTimer()
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += rowMarkerPass(oris, &m)
		}
		hubSink = sink
	})
	b.Run("blockrow", func(b *testing.B) {
		var m graph.RowMarker
		if got, want := blockRowPass(blocks, &m), rowMarkerPass(oris, &m); got != want {
			b.Fatalf("block rows count %d triangles, row marker %d", got, want)
		}
		b.ResetTimer()
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += blockRowPass(blocks, &m)
		}
		hubSink = sink
	})
}

// blockRowPass counts the triangles of every 1×1-grid block (own, its
// transpose) through m: the single round's operands are the block itself
// and its transpose.
func blockRowPass(blocks [][2]*graph.Block, m *graph.RowMarker) uint64 {
	var count uint64
	for _, ob := range blocks {
		own, bt := ob[0], ob[1]
		for rel := 0; rel < own.NRows(); rel++ {
			count += own.CountRow(m, rel, own, bt)
		}
	}
	return count
}

// rowMarkerPass counts the triangles of every graph through m.
func rowMarkerPass(oris []*graph.OutGraph, m *graph.RowMarker) uint64 {
	var count uint64
	for _, o := range oris {
		for v := 0; v < o.NumVertices(); v++ {
			count += o.CountRow(m, graph.Vertex(v))
		}
	}
	return count
}

// BenchmarkLocalOrientedCount compares CETRIC's local-phase hot loop on one
// PE of a p=8 partition in three shapes: the global-ID layout (CountMerge
// over Out with a Row lookup per element), per-pair row-space dispatch
// (CountRowsWith over OutRows), and the row-marker engine the local phase
// runs.
func BenchmarkLocalOrientedCount(b *testing.B) {
	for _, spec := range hubBenchGraphs() {
		pt, lg := buildLocalForBench(spec.g, 8, 3)
		_ = pt
		ori := graph.OrientLocal(lg)
		rows := lg.Rows()
		b.Run(spec.name+"/global-ids", func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					av := ori.Out(int32(r))
					for _, u := range av {
						sink += graph.CountMerge(av, ori.Out(lg.Row(u)))
					}
				}
			}
			hubSink = sink
		})
		b.Run(spec.name+"/row-space", func(b *testing.B) {
			ori.BuildHubs(graph.DefaultHubMinDegree)
			b.ResetTimer()
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					av := ori.OutRows(int32(r))
					for _, ur := range av {
						sink += ori.CountRowsWith(av, int32(ur))
					}
				}
			}
			hubSink = sink
		})
		b.Run(spec.name+"/row-marker", func(b *testing.B) {
			var m graph.RowMarker
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					av := ori.OutRows(int32(r))
					if len(av) < 2 {
						continue
					}
					ori.MarkRows(&m, av)
					for _, ur := range av {
						sink += ori.CountMarked(&m, int32(ur))
					}
					m.Clear()
				}
			}
			hubSink = sink
		})
	}
}

// buildLocalForBench builds one PE's local view of g under a uniform p-way
// partition, with ghost degrees filled from the global graph (standing in
// for the degree exchange).
func buildLocalForBench(g *graph.Graph, p, rank int) (*part.Partition, *graph.LocalGraph) {
	pt := part.Uniform(uint64(g.NumVertices()), p)
	per := graph.ScatterEdges(pt, g.Edges())
	lg := graph.BuildLocal(pt, rank, per[rank])
	for i, gid := range lg.Ghosts() {
		lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
	}
	return pt, lg
}
