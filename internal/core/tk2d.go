package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/transport"
)

// TK2D — the 2D grid-partitioned counter of Tom & Karypis ("A 2-D Parallel
// Triangle Counting Algorithm", 2019) — as an alternative geometry to the
// paper's 1D counters. The ID-oriented upper-triangular adjacency matrix U
// is cut into an r×c grid of blocks (cyclic bands per dimension; see
// part.Grid2D — any p ≥ 1 factors, square p giving the classic √p×√p
// grid), PE (a,b) owns block U_ab, and the count is the masked SpGEMM
// trace Σ_ab ⟨(U·U)_ab, U_ab⟩: in round k = 0..L−1 (L = lcm(r,c), the
// middle-vertex banding both dimensions agree on) the PE at grid position
// (a, k mod c) broadcasts its round-k stripe along row a, the PE at
// (k mod r, b) broadcasts its TRANSPOSED stripe down column b, and every
// PE (a,b) closes the wedges i→v→j with v ≡ k (mod L) against its own
// edges (i,j) through the same row-marker engine as the 1D counters: each
// own row i marks its round stripe A(i) once and probes every B(j) against
// it (graph.Block.CountRow). On square grids every stripe is a whole block
// and the schedule (and wire) reduces to the original √p-round one.
//
// The communication trade is the point: a PE ships its ~|E|/p-edge block
// (c−1)+(r−1) block-equivalents — O(|E|/√p) volume to O(√p) neighbors —
// instead of the 1D counters' cut-neighborhood shipping, whose volume
// grows with how many PEs each vertex's neighborhood spans and approaches
// O(|E|) per PE on dense or skewed graphs at large p. No ghost-degree
// exchange, no termination detection: the broadcast rounds are
// self-synchronizing.
//
// With cfg.Overlap the exchange is pipelined: round k+1's row/column
// broadcasts are posted split-phase (comm.Group.IBcast) before round k's
// block-local counting drains, so the per-round critical path is
// max(comm, compute) instead of comm + compute. Receive waits are metered
// into Metrics.IdleNs in both modes, and counting wall spent with the next
// round in flight into Metrics.OverlapNs. Counts are identical to the
// blocking schedule.
func runTK2D(g *graph.Graph, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.P <= 0 {
		return nil, fmt.Errorf("core: config needs P > 0")
	}
	if err := validateTK2D(cfg); err != nil {
		return nil, err
	}
	g2, err := part.NewGrid2D(uint64(g.NumVertices()), cfg.P)
	if err != nil {
		return nil, err
	}
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = DefaultThreshold(g.NumEdges(), cfg.P)
	}
	scatterStart := time.Now()
	perEdges := graph.ScatterEdges2D(g2, g.Edges(), cfg.Threads)
	scatterWall := time.Since(scatterStart)
	outcomes := make([]*peOutcome, cfg.P)
	start := time.Now()
	metrics, err := dist.Run(dist.Config{
		P: cfg.P, Threshold: threshold, Network: cfg.Network,
		CommDeadline: cfg.CommDeadline, RunTimeout: cfg.RunTimeout,
	}, func(pe *dist.PE) error {
		out := newPEOutcome()
		outcomes[pe.Rank] = out
		return tk2dBody(pe, g2, perEdges[pe.Rank], cfg, out)
	})
	var res *Result
	if err != nil {
		if res = maybePartial(err, cfg, outcomes, metrics, g); res == nil {
			return nil, err
		}
	} else {
		res = mergeOutcomes(outcomes, metrics, g, cfg)
	}
	res.Wall = time.Since(start)
	res.Phases[PhaseScatter] += scatterWall
	res.Phases[PhasePreprocess] += scatterWall
	return res, nil
}

// validateTK2D rejects the configs the 2D geometry cannot run: LCC, a 1D
// partition override and an unknown codec policy. runTK2D and runRankTK2D
// both call it, so one process and a cluster reject the same configs with
// the same errors.
func validateTK2D(cfg Config) error {
	if cfg.LCC {
		return fmt.Errorf("core: LCC is only supported by DITRIC/CETRIC, not %s", AlgoTK2D)
	}
	if cfg.Partition != nil {
		return fmt.Errorf("core: %s uses the 2D block partition; a 1D Partition cannot be applied", AlgoTK2D)
	}
	_, err := channelCodecs(cfg.Codec)
	return err
}

// runRankTK2D is the multi-process (one rank per process) variant, the 2D
// analogue of RunRank's 1D path: every process rebuilds the input
// deterministically and keeps only its block.
func runRankTK2D(g *graph.Graph, cfg Config, ep transport.Endpoint) (uint64, comm.Metrics, error) {
	cfg = cfg.withDefaults()
	cfg.P = ep.Size()
	if err := validateTK2D(cfg); err != nil {
		return 0, comm.Metrics{}, err
	}
	g2, err := part.NewGrid2D(uint64(g.NumVertices()), cfg.P)
	if err != nil {
		return 0, comm.Metrics{}, err
	}
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = DefaultThreshold(g.NumEdges(), cfg.P)
	}
	pe := dist.Attach(ep, threshold, false)
	edges := graph.ScatterEdges2DRank(g2, g.Edges(), pe.Rank, cfg.Threads)
	out := newPEOutcome()
	if err := tk2dBody(pe, g2, edges, cfg, out); err != nil {
		return 0, pe.C.M, err
	}
	global := pe.C.AllreduceSum([]uint64{out.count})
	return global[0], pe.C.M, nil
}

// groupCodec maps the run's codec policy to the block-broadcast codec. Raw
// stays raw; every other policy uses varint: block wire words are already
// gap-differenced per adjacency row (graph.Block.AppendWire), so varint on
// top yields delta-varint compression without a stateful codec
// re-differencing across record boundaries.
func groupCodec(policy string) comm.Codec {
	if policy == CodecRaw {
		return comm.Raw
	}
	return comm.Varint
}

// tk2dRound is the double-buffered per-round exchange state: each of the
// two in-flight rounds owns a posting slot — root-side stripe + wire
// scratch and the split-phase handles — and a decode slot. Blocking runs
// only ever populate slot k&1 right before draining it; pipelined runs
// keep slot (k+1)&1 posted while slot k&1 counts.
type tk2dRound struct {
	rowOp, colOp         comm.BcastOp
	rowRoot, colRoot     *graph.Block // operand the PE roots itself this round (own block, transpose, or stripe)
	rowStripe, colStripe graph.Block  // root-side stripe scratch (rect grids)
	rowWire, colWire     []uint64     // root-side wire scratch
	aScr, bScr           graph.Block  // receiver-side decode scratch
}

// tk2dBody is one PE's TK2D run: build the owned block and its transpose,
// then L broadcast rounds of exchange + block-local counting — blocking, or
// pipelined one round ahead under cfg.Overlap.
func tk2dBody(pe *dist.PE, g2 *part.Grid2D, edges []graph.Edge, cfg Config, out *peOutcome) error {
	sw := newStopwatch(pe.C, out)
	rounds := g2.Rounds()
	a, b := g2.RowCol(pe.Rank)

	sw.phase(PhaseBuild)
	own := graph.BuildBlock2D(g2, pe.Rank, edges, cfg.Threads)
	ownT := own.Transpose(cfg.Threads)
	// When a dimension's stride is 1 (L = c resp. L = r — always on square
	// grids) every round's stripe is the whole block, so the wire form is
	// serialized once here instead of per round.
	fastRow, fastCol := rounds == g2.C(), rounds == g2.R()
	var ownWire, ownTWire []uint64
	if fastRow {
		ownWire = own.AppendWire(nil)
	}
	if fastCol {
		ownTWire = ownT.AppendWire(nil)
	}

	sw.phase(PhasePreprocess)
	codec := groupCodec(cfg.Codec)
	// Group IDs: rows take 0..r-1, columns r..r+c-1 — unique per run, so
	// interleaved row/column broadcasts never share a tag.
	rowGrp, err := pe.C.NewGroup(uint64(a), g2.RowRanks(a))
	if err != nil {
		return err
	}
	colGrp, err := pe.C.NewGroup(uint64(g2.R()+b), g2.ColRanks(b))
	if err != nil {
		return err
	}
	// Line up the rounds so build skew lands here, not in the first round's
	// exchange wait (control traffic, like the 1D bodies' pre-count barrier).
	pe.C.Barrier()

	var slots [2]tk2dRound
	// post ships round k's stripes split-phase from this PE's posting slot.
	// Root frames leave here; receivers only advance the tag sequence.
	post := func(k int) {
		s := &slots[k&1]
		rowRoot, colRoot := g2.RootRow(k), g2.RootCol(k)
		var rowWords, colWords []uint64
		if b == rowRoot {
			if fastRow {
				s.rowRoot, rowWords = own, ownWire
			} else {
				res, stride := g2.StripeRow(k)
				own.StripeInto(&s.rowStripe, k, res, stride, g2.BandSizeRound(k))
				s.rowRoot = &s.rowStripe
				s.rowWire = s.rowStripe.AppendWire(s.rowWire[:0])
				rowWords = s.rowWire
			}
		}
		if a == colRoot {
			if fastCol {
				s.colRoot, colWords = ownT, ownTWire
			} else {
				res, stride := g2.StripeCol(k)
				ownT.StripeInto(&s.colStripe, k, res, stride, g2.BandSizeRound(k))
				s.colRoot = &s.colStripe
				s.colWire = s.colStripe.AppendWire(s.colWire[:0])
				colWords = s.colWire
			}
		}
		s.rowOp = rowGrp.IBcast(rowRoot, rowWords, codec)
		s.colOp = colGrp.IBcast(colRoot, colWords, codec)
	}
	// acquire completes round k's exchange and returns the counting
	// operands: A = round-k stripe of block (a, k mod c), B = transposed
	// round-k stripe of block (k mod r, b), both with round-space entries.
	acquire := func(k int) (*graph.Block, *graph.Block, error) {
		s := &slots[k&1]
		A, B := s.rowRoot, s.colRoot
		if b != g2.RootRow(k) {
			buf := s.rowOp.Wait()
			err := graph.DecodeBlockInto(buf, a, k, own.NRows(), g2.BandSizeRound(k), &s.aScr)
			rowGrp.Recycle(buf)
			if err != nil {
				return nil, nil, err
			}
			A = &s.aScr
		} else {
			s.rowOp.Wait()
		}
		if a != g2.RootCol(k) {
			buf := s.colOp.Wait()
			err := graph.DecodeBlockInto(buf, b, k, ownT.NRows(), g2.BandSizeRound(k), &s.bScr)
			colGrp.Recycle(buf)
			if err != nil {
				return nil, nil, err
			}
			B = &s.bScr
		} else {
			s.colOp.Wait()
		}
		return A, B, nil
	}

	hubMin := cfg.hubMinDegree()
	// One marker per worker: the round's counting runs no receive handlers,
	// so nothing re-enters a worker while its row is marked.
	type tk2dWorker struct {
		mark  graph.RowMarker
		count uint64
		tris  [][3]graph.Vertex
	}
	workers := make([]tk2dWorker, cfg.Threads)
	count := func(k int, A, B *graph.Block) {
		graph.ParallelFor(cfg.Threads, own.NRows(), func(w, lo, hi int) {
			ws := &workers[w]
			for rel := lo; rel < hi; rel++ {
				if !cfg.Collect {
					ws.count += own.CountRow(&ws.mark, rel, A, B)
					continue
				}
				i := g2.GIDRow(a, uint64(rel))
				own.ForEachRowTriangle(&ws.mark, rel, A, B, func(relJ, v graph.Vertex) {
					ws.count++
					ws.tris = append(ws.tris, [3]graph.Vertex{i, g2.GIDRound(k, v), g2.GIDCol(b, relJ)})
				})
			}
		})
	}

	pipelined := cfg.Overlap && rounds > 1
	sw.phase(PhaseGlobalExchange)
	if pipelined {
		post(0)
	}
	for k := 0; k < rounds; k++ {
		sw.phase(PhaseGlobalExchange)
		if pipelined {
			// Round k+1 goes on the wire before round k's payload is touched:
			// its frames land in the inbox (or stash) while the counting below
			// runs, so the next acquire's wait collapses to a decode.
			if k+1 < rounds {
				post(k + 1)
			}
		} else {
			post(k)
		}
		A, B, err := acquire(k)
		if err != nil {
			return err
		}
		B.BuildHubs(hubMin, cfg.Threads)

		sw.phase(PhaseLocal)
		t0 := time.Now()
		count(k, A, B)
		if pipelined && k+1 < rounds {
			// Counting wall with the next round's broadcasts in flight: the
			// compute that hides communication, same meaning as the 1D
			// pipeline's OverlapNs.
			pe.C.M.OverlapNs += time.Since(t0).Nanoseconds()
		}
	}
	sw.stop()
	for i := range workers {
		out.count += workers[i].count
		out.triangles = append(out.triangles, workers[i].tris...)
		out.probes.Add(workers[i].mark.Probes())
	}
	out.partialCount = out.count
	out.finished = true
	return nil
}
