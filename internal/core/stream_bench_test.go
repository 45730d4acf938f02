package core

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
)

// BenchmarkStreamDeltaSteadyState times one insert batch's delta step on
// both PEs of a p = 2 stream: the staged-row walk, the per-(vertex, PE)
// records (dispatched straight into the receiving PE's handler, as the
// queue's local dispatch would), the hub-bitset and merge/gallop kernels,
// and the end-of-batch bitset release. The batch stays staged, so every
// iteration redoes the same work; after one warm-up step the ship scratch,
// the row index and the bitset free list are all retained, so the step
// must report 0 allocs/op (CI gates on it). The queue's own flush path is
// gated separately by BenchmarkQueueFlushSteadyState.
func BenchmarkStreamDeltaSteadyState(b *testing.B) {
	cfg := gen.DefaultRMAT(10, 42)
	cfg.EdgeFactor = 8
	g := gen.RMAT(cfg)
	edges := g.Edges()
	rand.New(rand.NewSource(1)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	const p = 2
	pt := part.Uniform(uint64(g.NumVertices()), p)
	split := len(edges) - 512
	initial := graph.ScatterEdgesPar(pt, edges[:split], 1)
	batch := graph.ScatterEdgesPar(pt, edges[split:], 1)
	var states [p]*streamState
	for rank := range states {
		sb := graph.NewStreamBuilder(pt, rank)
		sb.Fold(initial[rank], 1)
		sb.Stage(batch[rank], 1)
		states[rank] = newStreamState(sb, pt.N())
	}
	var sends [p]func(dst int, rec []uint64)
	for rank := range sends {
		src := rank
		sends[rank] = func(dst int, rec []uint64) { states[dst].handle(src, rec) }
	}
	step := func() {
		for rank, s := range states {
			s.deltaStep(pt, sends[rank])
		}
		for _, s := range states {
			s.endBatch()
		}
	}
	step() // warm the retained scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	var w StreamWork
	for _, s := range states {
		w.add(s.work)
	}
	if w.HubBitsets == 0 || w.MergeWords == 0 || w.Records == 0 {
		b.Fatalf("delta step skipped a kernel or shipped nothing: %+v", w)
	}
}
