package core

import (
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
)

// cetricBody is CETRIC (Algorithm 3): the contraction-based two-phase
// algorithm. The local phase runs EDGE ITERATOR on the expanded local graph
// (locals + ghosts) and finds every type-1 and type-2 triangle without any
// communication; the contraction step removes all non-cut edges; the global
// phase runs the DITRIC machinery on the remaining cut graph, which by
// Lemma 1 contains exactly the type-3 triangles.
func cetricBody(pe *dist.PE, pt *part.Partition, edges []graph.Edge, cfg Config, out *peOutcome) error {
	sw := newStopwatch(pe.C, out)
	sw.phase(PhaseBuild)
	lg := graph.BuildLocalPar(pt, pe.Rank, edges, cfg.Threads)
	return cetricFrom(pe, pt, lg, cfg, out, sw)
}

// cetricFrom runs CETRIC's phases on an already-built local view — the
// entry point shared by the one-shot body above and the streaming driver.
func cetricFrom(pe *dist.PE, pt *part.Partition, lg *graph.LocalGraph, cfg Config, out *peOutcome, sw *stopwatch) error {
	sw.phase(PhaseDegrees)
	exchangeGhostDegrees(pe, lg, cfg.SparseDegreeExchange, cfg.Threads)
	sw.phase(PhaseOrient)
	// Expansion: orient every row, including ghosts (their visible
	// neighborhoods are the rewired incoming cut edges).
	ori := graph.OrientLocalPar(lg, cfg.Threads)
	ori.BuildHubsPar(cfg.hubMinDegree(), cfg.Threads)
	sw.phase(PhasePreprocess) // residual: handler setup + the barrier
	state := newCountState(lg, cfg)

	// Overlapped pipeline (pipeline.go): incoming cut neighborhoods wait
	// encoded in the transport until contraction builds the cut graph,
	// then the send sweep overlaps emission with receive-side
	// intersections drained by the same chunk-stealing worker pool.
	if cfg.Overlap {
		cetricOverlap(pe, pt, lg, ori, state, cfg, sw)
		finishBody(pe, sw, state, cfg, out)
		return nil
	}

	// The global-phase receive handler intersects with the *contracted*
	// A-lists. cut is assigned in the contraction phase, strictly before any
	// chNeigh record can be dispatched: dispatch only happens inside this
	// PE's Poll/Drain calls, the first of which is in its own global phase.
	// plc follows the same ordering argument (assigned right after cut,
	// before the first possible dispatch — the hub-ship drain).
	var cut *graph.LocalOriented
	var plc *placeRun
	// Hybrid mode funnels receive-side intersections to a worker pool; the
	// pool resolves cut lazily (it is assigned in the contraction phase,
	// strictly before the first task can be dispatched).
	var pool *recvPool
	if cfg.Threads > 1 {
		pool = newRecvPool(cfg.Threads, lg, cfg, func() *graph.LocalOriented { return cut }, func() *placeRun { return plc })
	}
	pe.Q.Handle(chNeigh, func(src int, words []uint64) {
		v := words[0]
		list := words[1:]
		if pool != nil {
			pool.submit(src, v, list, pe.Q.PinPayload())
			return
		}
		state.t3 += state.recvNeighAt(src, v, list, cut, plc)
	})
	pe.Q.Handle(chNeighEdge, func(src int, words []uint64) {
		state.t3 += state.recvNeighEdge(words[0], words[1], words[2:], cut)
	})
	pe.Q.Handle(chDelta, state.handleDelta)
	pe.C.Barrier()

	sw.phase(PhaseLocal)
	if cfg.Threads > 1 {
		hybridCetricLocal(lg, ori, state, cfg)
	} else {
		cetricLocalPhase(lg, ori, state, 0, lg.Rows())
	}

	out.partialCount = state.count // coherent local-phase snapshot for degraded merges
	sw.phase(PhaseContraction)
	cut = ori.ContractPar(cfg.Threads)
	cut.BuildHubsPar(cfg.hubMinDegree(), cfg.Threads)

	// Placement over the cut graph: the global phase ships and intersects
	// contracted A-lists, so nomination weights and stored tables model
	// exactly those. The Gather inside synchronizes all PEs past their
	// contraction before any hub ships.
	plc = computePlacement(pe, lg, cut, cfg)
	if plc != nil {
		pe.Q.Handle(chHubShip, plc.handleShip)
		sw.phase(PhasePlace)
		plc.ship(pe, cut)
	}

	sw.phase(PhaseGlobal)
	// Cut neighborhoods go out as (v, A(v)...) records with A(v) ID-sorted —
	// the shape the chNeigh delta-varint codec compresses best.
	cetricGlobalRows(pe, pt, lg, cut, state, 0, lg.NLocal(), nil, cfg.NoSurrogate, plc)
	pe.Q.Drain()
	if pool != nil {
		poolState := newCountState(lg, cfg)
		pool.drain(poolState)
		state.t3 += poolState.count
		state.merge(poolState)
	}

	finishBody(pe, sw, state, cfg, out)
	return nil
}

// cetricLocalPhase runs EDGE ITERATOR over rows [lo,hi) of the expanded
// local graph, counting and classifying type-1/type-2 triangles. It works
// entirely in row space: each row's A-list is marked once in the state's
// row marker and every wedge closes with bit tests (graph.RowMarker). Row
// space puts every local row before every ghost row, so when both wedge
// endpoints are local the type split by closing vertex is a split of the
// probed list at NLocal: the count-only path never enumerates.
func cetricLocalPhase(lg *graph.LocalGraph, ori *graph.LocalOriented, state *countState, lo, hi int) {
	nLoc := int32(lg.NLocal())
	fast := !state.lcc && !state.collect
	m := &state.mark
	for r := lo; r < hi; r++ {
		rv := int32(r)
		av := ori.OutRows(rv)
		if len(av) < 2 {
			continue // a single out-neighbor cannot close a triangle
		}
		ori.MarkRows(m, av)
		for _, ur := range av {
			ru := int32(ur)
			switch {
			case rv >= nLoc || ru >= nLoc:
				// At most one corner of a local-phase triangle is remote, and
				// here it is v or u: everything found is type 2.
				state.t2 += state.closeWedge(m, ori, rv, ru)
			case fast:
				// Both wedge endpoints local: the closing vertex decides the type.
				t1, t2 := ori.CountMarkedSplit(m, ru)
				state.t1 += t1
				state.t2 += t2
				state.count += t1 + t2
			default:
				ori.ForEachMarked(m, ru, func(w graph.Vertex) {
					state.addRows(rv, ru, int32(w))
					if int32(w) < nLoc {
						state.t1++
					} else {
						state.t2++
					}
				})
			}
		}
		m.Clear()
	}
}
