package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraph"
)

// Equivalence suite for the streaming driver: RunStream must agree with the
// one-shot Run oracle for every fixture × algorithm × PE count × batch
// size, under arrival-order shuffles, duplicate re-sends, and any split
// between initial build and inserted batches. Run under -race (CI does).

var streamAlgos = []Algorithm{AlgoDiTric, AlgoCetric}

// runStreamSplit streams edges[:split] as the initial build and the rest as
// inserted batches of the given size.
func runStreamSplit(t *testing.T, algo Algorithm, n int, edges []graph.Edge, split, batch int, cfg Config) *StreamResult {
	t.Helper()
	sres, err := RunStream(algo, uint64(n),
		SliceBatches(edges[:split], batch), SliceBatches(edges[split:], batch), cfg)
	if err != nil {
		t.Fatalf("RunStream(%s): %v", algo, err)
	}
	return sres
}

func TestRunStreamMatchesRun(t *testing.T) {
	for _, fx := range testgraph.All {
		g := fx.Build()
		edges := g.Edges()
		for _, algo := range streamAlgos {
			for _, p := range []int{1, 2, 4, 8} {
				cfg := Config{P: p}
				batch := len(edges)/3 + 1
				split := len(edges) / 2
				sres := runStreamSplit(t, algo, g.NumVertices(), edges, split, batch, cfg)
				if sres.Count != fx.Triangles {
					t.Errorf("%s %s p=%d: streamed count %d, want %d (initial %d, deltas %v)",
						fx.Name, algo, p, sres.Count, fx.Triangles, sres.Initial, sres.Deltas)
				}
				if sres.Res.Count != sres.Count {
					t.Errorf("%s %s p=%d: Res.Count %d != Count %d", fx.Name, algo, p, sres.Res.Count, sres.Count)
				}
			}
		}
	}
}

// TestRunStreamBatchSizes sweeps batch-size and split permutations on one
// non-trivial fixture, including single-edge batches and everything-inserted
// (empty initial graph) / everything-initial (no inserts) extremes.
func TestRunStreamBatchSizes(t *testing.T) {
	fx := testgraph.All[2%len(testgraph.All)]
	g := fx.Build()
	edges := g.Edges()
	for _, algo := range streamAlgos {
		for _, batch := range []int{1, 2, 7, len(edges)} {
			for _, split := range []int{0, 1, len(edges) / 2, len(edges)} {
				sres := runStreamSplit(t, algo, g.NumVertices(), edges, split, batch, Config{P: 4})
				if sres.Count != fx.Triangles {
					t.Errorf("%s %s batch=%d split=%d: count %d, want %d",
						fx.Name, algo, batch, split, sres.Count, fx.Triangles)
				}
			}
		}
	}
}

// TestRunStreamShuffledDuplicates feeds a shuffled stream with re-sent
// edges and self-loops: arrival order, duplicates (within and across
// batches), and loops must not change any count.
func TestRunStreamShuffledDuplicates(t *testing.T) {
	for _, fx := range testgraph.All[:4] {
		g := fx.Build()
		edges := g.Edges()
		rng := rand.New(rand.NewSource(42))
		stream := append(append([]graph.Edge{}, edges...), edges[:len(edges)/3]...)
		stream = append(stream, graph.Edge{U: 0, V: 0}) // self-loop
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		for _, algo := range streamAlgos {
			sres := runStreamSplit(t, algo, g.NumVertices(), stream, len(stream)/4, 11, Config{P: 4, Threads: 2})
			if sres.Count != fx.Triangles {
				t.Errorf("%s %s shuffled: count %d, want %d", fx.Name, algo, sres.Count, fx.Triangles)
			}
		}
	}
}

// TestRunStreamDuplicateInsertBatch re-inserts already-resident edges: every
// delta must be zero and the count unchanged.
func TestRunStreamDuplicateInsertBatch(t *testing.T) {
	fx := testgraph.All[0]
	g := fx.Build()
	edges := g.Edges()
	stream := append(append([]graph.Edge{}, edges...), edges...) // full re-send
	sres := runStreamSplit(t, AlgoDiTric, g.NumVertices(), stream, len(edges), 17, Config{P: 4})
	if sres.Count != fx.Triangles || sres.Initial != fx.Triangles {
		t.Fatalf("count %d initial %d, want both %d", sres.Count, sres.Initial, fx.Triangles)
	}
	for b, d := range sres.Deltas {
		if d != 0 {
			t.Errorf("duplicate batch %d produced delta %d", b, d)
		}
	}
}

// TestRunStreamVariants covers indirection, explicit δ, threads, and codec
// policies on the streamed path.
func TestRunStreamVariants(t *testing.T) {
	fx := testgraph.All[1%len(testgraph.All)]
	g := fx.Build()
	edges := g.Edges()
	for _, cfg := range []Config{
		{P: 4, Threads: 3},
		{P: 4, Threshold: 1},
		{P: 4, Threshold: 64, Codec: CodecRaw},
		{P: 4, Codec: CodecDeltaVarint},
		{P: 3, Indirect: true},
	} {
		for _, algo := range []Algorithm{AlgoDiTric2, AlgoCetric2, AlgoDiTric, AlgoCetric} {
			sres := runStreamSplit(t, algo, g.NumVertices(), edges, len(edges)/2, 5, cfg)
			if sres.Count != fx.Triangles {
				t.Errorf("%s %+v: count %d, want %d", algo, cfg, sres.Count, fx.Triangles)
			}
		}
	}
}

func TestRunStreamValidation(t *testing.T) {
	if _, err := RunStream(AlgoTriC, 8, nil, nil, Config{P: 2}); err == nil {
		t.Error("expected error for non-DITRIC/CETRIC algorithm")
	}
	if _, err := RunStream(AlgoDiTric, 8, nil, nil, Config{P: 2, LCC: true}); err == nil {
		t.Error("expected error for LCC while streaming")
	}
	if _, err := RunStream(AlgoDiTric, 8, nil, nil, Config{}); err == nil {
		t.Error("expected error for P = 0")
	}
	// Empty stream: zero triangles, no deltas.
	sres, err := RunStream(AlgoCetric, 8, nil, nil, Config{P: 2})
	if err != nil || sres.Count != 0 || len(sres.Deltas) != 0 {
		t.Errorf("empty stream: %v %+v", err, sres)
	}
}

// TestRunStreamPhases checks the stream phase accounting: ingest folds into
// preprocess, the per-batch sub-phases fold into the stream parent.
func TestRunStreamPhases(t *testing.T) {
	g := testgraph.All[0].Build()
	edges := g.Edges()
	sres := runStreamSplit(t, AlgoDiTric, g.NumVertices(), edges, len(edges)/2, 7, Config{P: 2})
	ph := sres.Res.Phases
	if _, ok := ph[PhaseIngest]; !ok {
		t.Errorf("missing %s phase: %v", PhaseIngest, ph)
	}
	if _, ok := ph[PhaseStreamDelta]; !ok {
		t.Errorf("missing %s phase: %v", PhaseStreamDelta, ph)
	}
	for name := range ph {
		if strings.HasPrefix(name, PhaseStream+"/") && ph[PhaseStream] < ph[name] {
			t.Errorf("sub-phase %s (%v) not folded into %s (%v)", name, ph[name], PhaseStream, ph[PhaseStream])
		}
	}
}

// FuzzStreamBatches drives RunStream with fuzzer-chosen fixture, batch
// size, initial/insert split, arrival order, and algorithm, against the
// precomputed fixture counts (the same oracle as the one-shot suite).
func FuzzStreamBatches(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint16(100), int64(1))
	f.Add(uint8(5), uint8(1), uint16(0), int64(7))
	f.Add(uint8(11), uint8(64), uint16(65535), int64(-3))
	f.Fuzz(func(t *testing.T, fxSel, batchSel uint8, splitSel uint16, seed int64) {
		fx := testgraph.All[int(fxSel)%len(testgraph.All)]
		g := fx.Build()
		edges := g.Edges()
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		batch := int(batchSel)%64 + 1
		split := int(splitSel) % (len(edges) + 1)
		algo := streamAlgos[int(seed&1)]
		p := []int{1, 2, 4}[int(uint16(seed>>1))%3]
		sres, err := RunStream(algo, uint64(g.NumVertices()),
			SliceBatches(edges[:split], batch), SliceBatches(edges[split:], batch), Config{P: p})
		if err != nil {
			t.Fatalf("%s %s p=%d batch=%d split=%d: %v", fx.Name, algo, p, batch, split, err)
		}
		if sres.Count != fx.Triangles {
			t.Fatalf("%s %s p=%d batch=%d split=%d: count %d, want %d",
				fx.Name, algo, p, batch, split, sres.Count, fx.Triangles)
		}
	})
}

// TestOverlapWatermarkClamp pins the eager-flush watermark for every δ in
// 1..1024 (DefaultThreshold's floor region): the watermark must stay at
// least 1 and strictly below δ for all δ > 1, so eager flushing keeps
// firing before the overflow flush — the bug was overlapFlushWords ≥ δ
// silently disabling it.
func TestOverlapWatermarkClamp(t *testing.T) {
	for delta := 1; delta <= 1024; delta++ {
		wm := overlapWatermark(delta, "")
		if wm < 1 {
			t.Fatalf("δ=%d: watermark %d < 1", delta, wm)
		}
		if delta > 1 && wm >= delta {
			t.Fatalf("δ=%d: watermark %d not below δ", delta, wm)
		}
		if wm > overlapFlushWords {
			t.Fatalf("δ=%d: watermark %d above overlapFlushWords", delta, wm)
		}
	}
	if wm := overlapWatermark(1<<20, ""); wm != overlapFlushWords {
		t.Fatalf("large δ: watermark %d, want %d", wm, overlapFlushWords)
	}
}

// TestOverlapWatermarkProfileTable pins wm = min(profileWatermark, δ/2)
// with floor 1 across the δ×profile grid: the profile watermark is the α/β
// break-even frame size (supercomputer 1563, cloud 7813, WAN 31250 words),
// the empty or unknown profile keeps the historical 1024-word constant, and
// the δ/2 clamp always wins below it.
func TestOverlapWatermarkProfileTable(t *testing.T) {
	for _, tc := range []struct {
		delta   int
		profile string
		want    int
	}{
		// No profile: the historical constant, δ/2-clamped.
		{1, "", 1}, {2, "", 1}, {100, "", 50}, {1024, "", 512},
		{2048, "", 1024}, {1 << 20, "", 1024},
		// Unknown profile names behave like no profile (counts never depend
		// on the profile string, so a typo must not change the schedule
		// beyond the documented default).
		{1 << 20, "nope", 1024},
		// Supercomputer: ⌈1µs/(64B/100Gbit)⌉ = 1563.
		{2000, "supercomputer", 1000}, {4096, "supercomputer", 1563},
		{1 << 20, "supercomputer", 1563},
		// Cloud: ⌈50µs/(64B/10Gbit)⌉ = 7813.
		{4096, "cloud", 2048}, {20000, "cloud", 7813}, {1 << 20, "cloud", 7813},
		// WAN: 2ms/(64B/1Gbit) = 31250 exactly.
		{20000, "wan", 10000}, {70000, "wan", 31250}, {1 << 20, "wan", 31250},
		// The floor survives every profile.
		{1, "wan", 1}, {1, "cloud", 1},
	} {
		if got := overlapWatermark(tc.delta, tc.profile); got != tc.want {
			t.Errorf("δ=%d profile=%q: watermark %d, want %d", tc.delta, tc.profile, got, tc.want)
		}
	}
}

// TestOverlapProfileWatermarkCountsUnchanged: configuring a profile moves
// flush timing only — counts stay exact on every overlapped algorithm.
func TestOverlapProfileWatermarkCountsUnchanged(t *testing.T) {
	fx := testgraph.All[0]
	g := fx.Build()
	for _, profile := range []string{"supercomputer", "cloud", "wan"} {
		for _, algo := range streamAlgos {
			res, err := Run(algo, g, Config{P: 4, Overlap: true, Profile: profile, Threads: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", algo, profile, err)
			}
			if res.Count != fx.Triangles {
				t.Errorf("%s %s: count %d, want %d", algo, profile, res.Count, fx.Triangles)
			}
		}
	}
}

// TestOverlapTinyThresholds runs the overlapped pipeline across tiny δ
// values (the clamped-watermark regime) and checks counts stay exact.
func TestOverlapTinyThresholds(t *testing.T) {
	fx := testgraph.All[0]
	g := fx.Build()
	for _, delta := range []int{1, 2, 3, 8, 100, 1023, 1024} {
		for _, algo := range streamAlgos {
			res, err := Run(algo, g, Config{P: 4, Threshold: delta, Overlap: true})
			if err != nil {
				t.Fatalf("%s δ=%d: %v", algo, delta, err)
			}
			if res.Count != fx.Triangles {
				t.Errorf("%s δ=%d: count %d, want %d", algo, delta, res.Count, fx.Triangles)
			}
		}
	}
}

// TestRunDoulionRejectsNaN pins the NaN-proof validation: NaN compares
// false against every bound, so the old two-clause check accepted it.
func TestRunDoulionRejectsNaN(t *testing.T) {
	g := testgraph.All[0].Build()
	for _, q := range []float64{math.NaN(), 0, -0.5, 1.5, math.Inf(1), math.Inf(-1)} {
		if _, _, err := RunDoulion(AlgoDiTric, g, Config{P: 2}, q, 1); err == nil {
			t.Errorf("q=%v: expected error", q)
		}
	}
	if _, _, err := RunDoulion(AlgoDiTric, g, Config{P: 2}, 1, 1); err != nil {
		t.Errorf("q=1: %v", err)
	}
}

func TestSparsifyColorfulRejectsZeroColors(t *testing.T) {
	g := testgraph.All[0].Build()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ncolors=0")
		}
	}()
	SparsifyColorful(g, 0, 1)
}

// TestRunStreamPerBatchOracle checks every batch's delta, not just the
// final count, against SeqCount of consecutive prefixes of the arrival
// order, on a mid-size skewed graph: R-MAT scale 12 has rows on both sides
// of the ⌈n/64⌉ = 64 hub-bitset threshold, which the tiny fixtures (where
// nearly every row is a hub) cannot provide. The work counters guard
// against a vacuous pass: the bitset and the merge/gallop kernels must both
// have run, and some vertex's record must have gone to two PEs in one batch.
func TestRunStreamPerBatchOracle(t *testing.T) {
	cfg := gen.DefaultRMAT(12, 5)
	cfg.EdgeFactor = 8
	g := gen.RMAT(cfg)
	n := g.NumVertices()
	edges := g.Edges()
	rand.New(rand.NewSource(11)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	split := len(edges) / 2
	prefixCount := func(k int) uint64 { return SeqCount(graph.FromEdges(n, edges[:k])) }
	initial := prefixCount(split)

	for _, sched := range []struct{ batch, inserts int }{
		{1, 24},                    // single-edge batches over a short tail
		{61, 1500},                 // many small batches
		{1500, len(edges) - split}, // few large batches: hubs gain many neighbors at once
	} {
		end := split + sched.inserts
		var want []uint64
		prev := initial
		for k := split; k < end; k += sched.batch {
			c := prefixCount(min(k+sched.batch, end))
			want = append(want, c-prev)
			prev = c
		}
		for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric, AlgoDiTric2} {
			for _, p := range []int{1, 2, 3, 4, 8} {
				sres, err := RunStream(algo, uint64(n), SliceBatches(edges[:split], 4096),
					SliceBatches(edges[split:end], sched.batch), Config{P: p})
				if err != nil {
					t.Fatalf("%s p=%d batch=%d: %v", algo, p, sched.batch, err)
				}
				if sres.Initial != initial || !slices.Equal(sres.Deltas, want) {
					t.Fatalf("%s p=%d batch=%d: initial %d deltas %v, want %d %v",
						algo, p, sched.batch, sres.Initial, sres.Deltas, initial, want)
				}
				w := sres.Work
				if w.HubBitsets == 0 || w.BitsetWords == 0 || w.MergeWords == 0 {
					t.Errorf("%s p=%d batch=%d: a kernel never ran: %+v", algo, p, sched.batch, w)
				}
				if sched.batch > 1 && p >= 3 && w.MaxFanout < 2 {
					t.Errorf("%s p=%d batch=%d: no vertex shipped to two PEs in one batch: %+v", algo, p, sched.batch, w)
				}
				if p == 1 && w.Records != 0 {
					t.Errorf("%s p=1: %d records shipped", algo, w.Records)
				}
			}
		}
	}
}
