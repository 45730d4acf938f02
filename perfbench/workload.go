package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/gen"
	"repro/internal/graph"
)

// workload names one input family. The graph is generated from the seed and
// its edges are put in a seed-determined random arrival order; the program
// only ever sees the text edge list written in that order, and the stream
// pass inserts edges in that order.
type workload struct {
	name  string
	graph func(seed uint64) *graph.Graph
	// streamEvery runs the insert pass on every streamEvery-th round only,
	// leaving the count calls more of the run where they are the point.
	streamEvery int
}

var workloads = []workload{
	{
		// Scrambled IDs make the 1D cut large; hubs (max degree ~10k) engage
		// the bitmap kernels and skew the per-PE load.
		name:        "rmat-skew",
		graph:       func(seed uint64) *graph.Graph { return gen.RMAT(gen.DefaultRMAT(16, seed)) },
		streamEvery: 2,
	},
	{
		// Geometric IDs leave almost no cut and no hub row: the control for
		// comm and hub-kernel changes, with preprocessing a large share of
		// each count. Shuffled arrival spreads every insert batch over all
		// rows, so StreamBuilder writes carry the insert pass.
		name:        "rgg-stream",
		graph:       func(seed uint64) *graph.Graph { return gen.RGG2D(1<<17, 16, seed) },
		streamEvery: 1,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// input is what one run hands the program.
type input struct {
	workload string
	seed     uint64
	text     []byte       // "u v" lines, the file a user would pass to -input
	order    []graph.Edge // the same edges in the same order, for the stream pass

	streamEvery int
}

func makeInput(w workload, seed uint64) input {
	in := inputFrom(w.name, seed, w.graph(seed))
	in.streamEvery = w.streamEvery
	return in
}

func inputFrom(name string, seed uint64, g *graph.Graph) input {
	edges := g.Edges()
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	text := make([]byte, 0, 12*len(edges))
	for _, e := range edges {
		text = strconv.AppendUint(text, e.U, 10)
		text = append(text, ' ')
		text = strconv.AppendUint(text, e.V, 10)
		text = append(text, '\n')
	}
	return input{workload: name, seed: seed, text: text, order: edges, streamEvery: 1}
}
