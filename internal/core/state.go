package core

import (
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
)

// Queue channels used by the distributed algorithms. Each channel's record
// shape determines its tuned wire codec under the "auto" policy — see
// channelCodecs in codec.go for the assignment and rationale.
const (
	chNeigh  = 0 // (v, A(v)) neighborhood shipments
	chDelta  = 1 // (gid, Δ) ghost triangle-count aggregation (LCC)
	chDegReq = 2 // ghost degree requests: [gid...]
	chDegRep = 3 // ghost degree replies: [gid, deg, ...]
	chWedge  = 4 // HavoqGT-style wedge-check visitors: [a, b, ...]
	chAMQ    = 5 // (v, |A(v)|, bloom words) approximate shipments
	chDeltaF = 6 // (gid, Float64bits(Δ̂)) approximate ghost Δ aggregation
	// chNeighEdge carries per-edge records (v, u, A(v)...) used when the
	// surrogate dedup is disabled: the receiver intersects only for the named
	// u, exactly Algorithm 2's semantics (otherwise repeated shipments of the
	// same neighborhood would double count). While streaming, the delta
	// engine re-registers it for its per-(vertex, PE) records
	// [v, |Δ(v)|, Δ(v)..., old(v)...]: one per batch for each lower PE owning
	// a new neighbor of v, paired there with every such neighbor, and
	// intersected through a hub bitset when old(v) has ≥ ⌈n/64⌉ entries.
	chNeighEdge = 7
	// chHubShip carries placement shipments (hub, A(hub)...): a moved hub's
	// oriented neighborhood, sent once by its owner to the surrogate PE the
	// cost-driven placement chose, before any counting traffic flows.
	chHubShip = 8
)

// countState accumulates one PE's triangles, per-row Δ counts and optional
// triangle collection. Rows cover locals and ghosts, so every increment from
// both the local and the receive side lands in deltaRows (see the type
// analysis in DESIGN.md §5); ghost rows are shipped to their owners in the
// postprocessing exchange.
type countState struct {
	lg         *graph.LocalGraph
	lcc        bool
	collect    bool
	count      uint64
	t1, t2, t3 uint64
	deltaRows  []uint64
	triangles  [][3]graph.Vertex

	// recvWork meters receive-side intersection work in words scanned
	// (list + partner lengths per intersection). Deterministic and
	// schedule-independent, unlike wall-clock: it is the per-PE global-phase
	// load the placement overlay balances, exported via
	// comm.Metrics.RecvWorkWords.
	recvWork uint64

	// side accumulates LCC Δ increments for triangle corners that are not
	// rows on this PE — only surrogate-side intersections can produce those
	// (the stored hub and the shipped list live in global-ID space). Merged
	// into deltaRows or shipped to owners by flushGhostDeltas.
	side map[graph.Vertex]uint64

	// Receive-side translation scratch (see graph.RowTranslator). Reused
	// across records so steady-state receive processing allocates nothing.
	tr graph.RowTranslator
}

func newCountState(lg *graph.LocalGraph, cfg Config) *countState {
	s := &countState{lg: lg, lcc: cfg.LCC, collect: cfg.Collect}
	if s.lcc {
		s.deltaRows = make([]uint64, lg.Rows())
	}
	return s
}

// add records one triangle (corners as global IDs, all must be rows).
func (s *countState) add(v, u, w graph.Vertex) {
	s.count++
	if s.lcc {
		s.deltaRows[s.lg.Row(v)]++
		s.deltaRows[s.lg.Row(u)]++
		s.deltaRows[s.lg.Row(w)]++
	}
	if s.collect {
		s.triangles = append(s.triangles, CanonTriangle(v, u, w))
	}
}

// addRows records one triangle given as row indices — the hot-path twin of
// add with no global-ID lookups.
func (s *countState) addRows(rv, ru, rw int32) {
	s.count++
	if s.lcc {
		s.deltaRows[rv]++
		s.deltaRows[ru]++
		s.deltaRows[rw]++
	}
	if s.collect {
		lg := s.lg
		s.triangles = append(s.triangles, CanonTriangle(lg.GID(rv), lg.GID(ru), lg.GID(rw)))
	}
}

// countEdge intersects av = A(v) with au = A(u) for the directed edge (v,u),
// recording every triangle. Fast path without LCC/collection. This is the
// global-ID path kept for the baselines (TriC); DITRIC/CETRIC run the
// row-space path below.
func (s *countState) countEdge(v, u graph.Vertex, av, au []graph.Vertex) uint64 {
	if !s.lcc && !s.collect {
		c := graph.CountIntersect(av, au)
		s.count += c
		return c
	}
	var c uint64
	graph.ForEachCommon(av, au, func(w graph.Vertex) {
		s.add(v, u, w)
		c++
	})
	return c
}

// recvNeigh processes one received (v, A(v)) record. The list is intersected
// once per local endpoint it contains, so the row translation (which must
// resolve the list's ghosts) only pays off when there are at least two: a
// cheap range-check scan picks the strategy first — drop the record, run one
// global-ID intersection, or translate once and run every intersection in
// row space with the adaptive kernels. Zero map lookups and zero allocations
// per record either way. Returns the number of triangles found.
func (s *countState) recvNeigh(v graph.Vertex, list []uint64, o *graph.LocalOriented) uint64 {
	lg := s.lg
	nLoc := 0
	first := int32(-1)
	for _, x := range list {
		if lg.IsLocal(x) {
			if nLoc == 0 {
				first = int32(x - lg.First)
			}
			nLoc++
		}
	}
	fast := !s.lcc && !s.collect
	switch {
	case nLoc == 0:
		return 0
	case nLoc == 1 && fast:
		partner := o.Out(first)
		s.recvWork += uint64(len(list) + len(partner))
		c := graph.CountIntersect(list, partner)
		s.count += c
		return c
	}
	rows, _ := lg.TranslateRows(&s.tr, list)
	if fast {
		var c uint64
		for _, ur := range rows[:nLoc] {
			s.recvWork += uint64(len(rows) + o.OutDegree(int32(ur)))
			c += o.CountRowsWith(rows, int32(ur))
		}
		s.count += c
		return c
	}
	// v is adjacent to a local vertex, so it is a row (ghost) here.
	rv := lg.Row(v)
	var c uint64
	for _, ur := range rows[:nLoc] {
		ru := int32(ur)
		s.recvWork += uint64(len(rows) + o.OutDegree(ru))
		o.ForEachCommonRowsWith(rows, ru, func(w graph.Vertex) {
			s.addRows(rv, ru, int32(w))
			c++
		})
	}
	return c
}

// recvNeighEdge processes one received (v, u, A(v)) record (the per-edge
// shipment of the no-surrogate ablation): intersect only for the named u —
// a single intersection, so the fast path stays on global IDs and skips the
// row translation entirely.
func (s *countState) recvNeighEdge(v, u graph.Vertex, list []uint64, o *graph.LocalOriented) uint64 {
	if !s.lg.IsLocal(u) {
		return 0
	}
	ru := int32(u - s.lg.First)
	if !s.lcc && !s.collect {
		partner := o.Out(ru)
		s.recvWork += uint64(len(list) + len(partner))
		c := graph.CountIntersect(list, partner)
		s.count += c
		return c
	}
	rows, _ := s.lg.TranslateRows(&s.tr, list)
	rv := s.lg.Row(v)
	var c uint64
	s.recvWork += uint64(len(rows) + o.OutDegree(ru))
	o.ForEachCommonRowsWith(rows, ru, func(w graph.Vertex) {
		s.addRows(rv, ru, int32(w))
		c++
	})
	return c
}

// countWedgeRows records the triangles closing the wedge rooted at the
// oriented edge (rv, ru): av is A(rv) in row space, hoisted by the caller
// once per row, so each pair pays exactly one hub lookup plus the adaptive
// kernel (bitmap tests, gallop, branchy merge).
func (s *countState) countWedgeRows(av []uint64, rv, ru int32, o *graph.LocalOriented) uint64 {
	if !s.lcc && !s.collect {
		c := o.CountRowsWith(av, ru)
		s.count += c
		return c
	}
	var c uint64
	o.ForEachCommonRowsWith(av, ru, func(w graph.Vertex) {
		s.addRows(rv, ru, int32(w))
		c++
	})
	return c
}

// sideAdd records one LCC Δ increment for a vertex that may not be a row
// here (surrogate-side triangle corners). Lazy: only placed runs with LCC
// enabled ever allocate the map.
func (s *countState) sideAdd(v graph.Vertex) {
	if s.side == nil {
		s.side = make(map[graph.Vertex]uint64)
	}
	s.side[v]++
}

// handleDelta processes ghost Δ aggregation records [gid, Δ, gid, Δ, ...].
func (s *countState) handleDelta(_ int, words []uint64) {
	for i := 0; i+1 < len(words); i += 2 {
		s.deltaRows[s.lg.Row(words[i])] += words[i+1]
	}
}

// flushGhostDeltas ships accumulated ghost Δ values to their owners
// (batched per destination) and merges replies; callers must Drain after.
func (s *countState) flushGhostDeltas(pe *dist.PE) {
	if !s.lcc {
		return
	}
	lg := s.lg
	batch := make(map[int][]uint64)
	for i, gid := range lg.Ghosts() {
		row := lg.NLocal() + i
		if d := s.deltaRows[row]; d > 0 {
			dst := lg.Part.Rank(gid)
			batch[dst] = append(batch[dst], gid, d)
		}
	}
	// Surrogate-side increments: corners of triangles found on behalf of
	// other PEs need not be rows here, so they bypassed deltaRows. Locals
	// fold in directly; the rest join the owner-addressed batches.
	for gid, d := range s.side {
		if lg.IsLocal(gid) {
			s.deltaRows[gid-lg.First] += d
		} else {
			dst := lg.Part.Rank(gid)
			batch[dst] = append(batch[dst], gid, d)
		}
	}
	for dst, words := range batch {
		pe.Q.Send(chDelta, dst, words)
	}
}

// finish copies the per-PE result into out. Local Δ values (now complete
// after the postprocess exchange) are exported keyed by global ID.
func (s *countState) finish(out *peOutcome) {
	out.count = s.count
	out.finished = true
	out.typeCounts = [3]uint64{s.t1, s.t2, s.t3}
	out.triangles = s.triangles
	if s.lcc {
		out.deltas = make(map[graph.Vertex]uint64, s.lg.NLocal())
		for r := 0; r < s.lg.NLocal(); r++ {
			out.deltas[s.lg.GID(int32(r))] = s.deltaRows[r]
		}
	}
}

// exchangeGhostDegrees implements exchange_ghost_degree (Algorithm 3 line 1)
// either with the dense all-to-all the paper defaults to, or with the
// asynchronous sparse all-to-all (NBX style: direct messages to actual
// communication partners + termination detection). Reply construction — the
// degree lookup per requested ghost, previously the last single-threaded
// per-PE preprocess sub-phase — fans out over the same chunk-stealing
// workers as the rest of the pipeline (graph.ParallelFor), flattened across
// the per-source request lists so a few large requesters cannot serialize
// the stage.
func exchangeGhostDegrees(pe *dist.PE, lg *graph.LocalGraph, sparse bool, threads int) {
	if sparse {
		exchangeGhostDegreesSparse(pe, lg)
		return
	}
	p := pe.P
	reqs := make([][]uint64, p)
	for _, g := range lg.Ghosts() {
		owner := lg.Part.Rank(g)
		reqs[owner] = append(reqs[owner], g)
	}
	gotReqs := pe.C.DenseExchange(reqs)
	replies := make([][]uint64, p)
	var srcs []int // sources with a non-empty request list
	var offs []int // prefix offsets of their lists in the flattened index
	total := 0
	for src, list := range gotReqs {
		if src == pe.Rank || len(list) == 0 {
			continue
		}
		replies[src] = make([]uint64, len(list))
		srcs = append(srcs, src)
		offs = append(offs, total)
		total += len(list)
	}
	graph.ParallelFor(threads, total, func(_, lo, hi int) {
		// Locate the source span containing lo, then walk forward; a chunk
		// crossing span boundaries continues into the next source.
		si := sort.Search(len(offs), func(i int) bool { return offs[i] > lo }) - 1
		for i := lo; i < hi; si++ {
			src, base := srcs[si], offs[si]
			list, rep := gotReqs[src], replies[src]
			end := min(hi, base+len(list))
			for ; i < end; i++ {
				rep[i-base] = uint64(lg.Degree(lg.Row(list[i-base])))
			}
		}
	})
	gotReps := pe.C.DenseExchange(replies)
	for owner, list := range gotReps {
		for k, d := range list {
			gid := reqs[owner][k]
			row, _ := lg.GhostRow(gid)
			lg.SetGhostDegree(row, int(d))
		}
	}
}

func exchangeGhostDegreesSparse(pe *dist.PE, lg *graph.LocalGraph) {
	pe.Q.Handle(chDegReq, func(src int, words []uint64) {
		rep := make([]uint64, 0, 2*len(words))
		for _, gid := range words {
			rep = append(rep, gid, uint64(lg.Degree(lg.Row(gid))))
		}
		pe.Q.Send(chDegRep, src, rep)
	})
	pe.Q.Handle(chDegRep, func(_ int, words []uint64) {
		for i := 0; i+1 < len(words); i += 2 {
			row, ok := lg.GhostRow(words[i])
			if !ok {
				panic("core: degree reply for unknown ghost")
			}
			lg.SetGhostDegree(row, int(words[i+1]))
		}
	})
	reqs := make(map[int][]uint64)
	for _, g := range lg.Ghosts() {
		owner := lg.Part.Rank(g)
		reqs[owner] = append(reqs[owner], g)
	}
	for owner, gids := range reqs {
		pe.Q.Send(chDegReq, owner, gids)
	}
	pe.Q.Drain()
}

// mergeOutcomes folds per-PE outcomes into a Result.
func mergeOutcomes(outcomes []*peOutcome, metrics []comm.Metrics, g *graph.Graph, cfg Config) *Result {
	res := &Result{
		PerPE:     metrics,
		Agg:       comm.AggregateOf(metrics),
		Phases:    make(map[string]time.Duration),
		PhaseComm: make(map[string]comm.Aggregate),
	}
	phaseMetrics := make(map[string][]comm.Metrics)
	for _, out := range outcomes {
		if out == nil {
			continue // PE aborted before its body allocated an outcome
		}
		if !out.finished {
			// Degraded merge: the body aborted mid-run, count what its last
			// phase-boundary snapshot had.
			res.Count += out.partialCount
			continue
		}
		res.Count += out.count
		for i := 0; i < 3; i++ {
			res.TypeCounts[i] += out.typeCounts[i]
		}
		res.Triangles = append(res.Triangles, out.triangles...)
		for name, d := range out.phases {
			if d > res.Phases[name] {
				res.Phases[name] = d
			}
		}
		for name, m := range out.phaseComm {
			phaseMetrics[name] = append(phaseMetrics[name], m)
		}
	}
	for name, ms := range phaseMetrics {
		res.PhaseComm[name] = comm.AggregateOf(ms)
	}
	if cfg.LCC {
		res.Deltas = make([]uint64, g.NumVertices())
		for _, out := range outcomes {
			if out == nil {
				continue
			}
			for gid, d := range out.deltas {
				res.Deltas[gid] = d
			}
		}
		res.LCC = LCCFromDeltas(g, res.Deltas)
	}
	return res
}
