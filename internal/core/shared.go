package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Shared-memory parallel EDGE ITERATOR in the style of Shun and Tangwongsan
// (§III-A1): the per-vertex (or per-edge-chunk) intersections are
// independent, so they run lock-free over a pool of workers with dynamic
// chunk stealing (Green et al.'s edge-centric balancing without the static
// partitioning pass); every worker closes its rows' wedges through its own
// row marker. This is the single-node baseline the distributed
// algorithms degenerate to at p=1, and the engine a hybrid rank uses per
// node.

// SharedConfig controls the shared-memory counter.
type SharedConfig struct {
	Threads int // worker goroutines; ≤0 uses GOMAXPROCS
	// Deltas additionally accumulates per-vertex triangle counts.
	Deltas bool
	// HubThreshold tunes the hub-bitmap index (0 picks
	// graph.DefaultHubMinDegree, negative disables it — see Config).
	HubThreshold int
}

// SharedResult reports a shared-memory run.
type SharedResult struct {
	Count  uint64
	Deltas []uint64 // nil unless requested
}

// SharedCount counts triangles with Threads parallel workers.
func SharedCount(g *graph.Graph, cfg SharedConfig) SharedResult {
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	o := graph.Orient(g)
	o.BuildHubs(resolveHubMinDegree(cfg.HubThreshold))
	n := g.NumVertices()

	var deltas []atomic.Uint64
	if cfg.Deltas {
		deltas = make([]atomic.Uint64, n)
	}

	const chunk = 256
	var next atomic.Int64
	var total atomic.Uint64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m graph.RowMarker
			var local uint64
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= n {
					break
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for v := lo; v < hi; v++ {
					if deltas == nil {
						local += o.CountRow(&m, graph.Vertex(v))
						continue
					}
					o.ForEachRowTriangle(&m, graph.Vertex(v), func(u, w graph.Vertex) {
						local++
						deltas[v].Add(1)
						deltas[u].Add(1)
						deltas[w].Add(1)
					})
				}
			}
			total.Add(local)
		}()
	}
	wg.Wait()

	res := SharedResult{Count: total.Load()}
	if cfg.Deltas {
		res.Deltas = make([]uint64, n)
		for v := range res.Deltas {
			res.Deltas[v] = deltas[v].Load()
		}
	}
	return res
}

// SharedLCC computes local clustering coefficients with parallel workers.
func SharedLCC(g *graph.Graph, threads int) []float64 {
	res := SharedCount(g, SharedConfig{Threads: threads, Deltas: true})
	return LCCFromDeltas(g, res.Deltas)
}
