package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
)

// Streaming ingestion + incremental counting (RunStream). The one-shot
// driver materializes the full edge list and a complete p-way scatter
// before any PE starts building; the streaming driver feeds scattered
// batches through per-PE channels instead, so driver memory stays
// O(|E_i| + batch). On top of the incremental build it maintains the
// triangle count under batched edge insertions: after the initial graph is
// sealed and counted once with the regular DITRIC/CETRIC machinery, each
// inserted batch Δ is delta-counted as tri(G+Δ) − tri(G) — the triangles
// with at least one Δ edge — without ever recounting G.
//
// The delta identity is the bulk-update scheme of Tangwongsan, Pavan &
// Tirthapura (arXiv:1308.2166): for each effective-new edge (v,w), with
// old(x) the pre-batch neighborhood and Δ(x) the batch's strictly-new
// neighbors of x,
//
//	n0 += |old(v) ∩ old(w)|   (triangles with exactly this one new edge)
//	n1 += |old(v) ∩ Δ(w)| + |Δ(v) ∩ old(w)|   (two new edges: seen twice)
//	n2 += |Δ(v) ∩ Δ(w)|       (three new edges: seen three times)
//
// and the batch's triangle delta is n0 + n1/2 + n2/3 — divided only after
// the global sum, since per-PE shares need not be divisible. Intersections
// run in global-ID space: degree orientation is unstable under inserts (an
// insert can flip an edge's direction and would force re-orientation per
// batch), so the delta engine deliberately stays unoriented; double
// counting cannot occur because every new edge is processed exactly once,
// at the owner of its smaller endpoint.
//
// Cut pairs travel the way the one-shot global phase ships cut
// neighborhoods: once per (vertex, PE), not once per cut edge. The owner of
// v sends [v, |Δ(v)|, Δ(v)..., old(v)...] once per batch to each lower PE
// that owns some w ∈ Δ(v), and that PE pairs v with all of them. An old
// list of at least ⌈n/64⌉ entries — a hub row, resident or shipped — is
// intersected through a global-ID bitset built lazily once per vertex per
// batch (its n/64 words are no more than the list, so memory stays linear);
// every other pair runs the adaptive merge/gallop kernel.

// BatchSource yields successive edge batches of a stream. Returning nil or
// an empty batch ends the source. Batches may be any size; the driver
// scatters each batch and hands every PE its slice, so a source never needs
// to know the partition.
type BatchSource func() []graph.Edge

// SliceBatches adapts an in-memory edge list to a BatchSource yielding
// consecutive batches of at most batch edges (the whole slice at once when
// batch ≤ 0). The slice is not copied.
func SliceBatches(edges []graph.Edge, batch int) BatchSource {
	if batch <= 0 {
		batch = max(1, len(edges))
	}
	i := 0
	return func() []graph.Edge {
		if i >= len(edges) {
			return nil
		}
		j := min(i+batch, len(edges))
		b := edges[i:j]
		i = j
		return b
	}
}

// StreamResult reports a streaming run.
type StreamResult struct {
	// Initial is the triangle count of the sealed initial graph.
	Initial uint64
	// Deltas holds the triangle-count increase contributed by each inserted
	// batch, in arrival order.
	Deltas []uint64
	// Count is the final triangle count: Initial plus all Deltas.
	Count uint64
	// Work counts the delta engine's kernel work and shipments.
	Work StreamWork
	// Res carries the merged per-PE metrics and phase breakdown (its Count
	// equals the final Count; LCC/Collect fields stay empty — unsupported
	// while streaming).
	Res *Result
}

// feedItem is one PE's slice of one scattered batch.
type feedItem struct {
	edges  []graph.Edge
	insert bool // false: initial-build batch, true: delta-counted insertion
}

// streamOutcome is the per-PE streaming state collected by the driver.
type streamOutcome struct {
	tuples [][3]uint64 // per insert batch: (n0, n1, n2) shares
	work   StreamWork
}

// countBody runs one algorithm's counting phases on an already-built local
// view (the post-build halves of the one-shot bodies).
type countBody func(pe *dist.PE, pt *part.Partition, lg *graph.LocalGraph, cfg Config, out *peOutcome, sw *stopwatch) error

// countFor resolves the streaming-capable algorithms; the second result
// forces indirection (the "2" variants).
func countFor(algo Algorithm) (countBody, bool, error) {
	switch algo {
	case AlgoDiTric:
		return ditricFrom, false, nil
	case AlgoDiTric2:
		return ditricFrom, true, nil
	case AlgoCetric:
		return cetricFrom, false, nil
	case AlgoCetric2:
		return cetricFrom, true, nil
	default:
		return nil, false, fmt.Errorf("core: streaming supports the DITRIC/CETRIC variants, not %s", algo)
	}
}

// streamThreshold is DefaultThreshold's per-PE analogue for streams: the
// driver cannot derive δ from |E| up front (the stream's size is unknown),
// so each PE resolves its own δ ∈ O(|E_i|) from the sealed resident size.
func streamThreshold(localEdges int) int { return max(localEdges, 1024) }

// RunStream executes algo over a streamed graph on n vertices: the initial
// source's batches are folded into the per-PE resident adjacency and
// counted once, then each batch of the inserts source is delta-counted.
// Either source may be nil. Counts are identical to Run on the union of all
// batches — duplicate edges and self-loops are dropped exactly like
// graph.FromEdges drops them.
func RunStream(algo Algorithm, n uint64, initial, inserts BatchSource, cfg Config) (*StreamResult, error) {
	cfg = cfg.withDefaults()
	if cfg.P <= 0 {
		return nil, fmt.Errorf("core: config needs P > 0")
	}
	if cfg.LCC || cfg.Collect {
		return nil, fmt.Errorf("core: streaming does not support LCC or triangle collection")
	}
	count, indirectDefault, err := countFor(algo)
	if err != nil {
		return nil, err
	}
	pt := cfg.Partition
	if pt == nil {
		pt = part.Uniform(n, cfg.P)
	} else if pt.P() != cfg.P || pt.N() != n {
		return nil, fmt.Errorf("core: partition shape (p=%d,n=%d) does not match run (p=%d,n=%d)",
			pt.P(), pt.N(), cfg.P, n)
	}
	if _, err := channelCodecs(cfg.Codec); err != nil {
		return nil, err
	}

	// The feeder scatters one batch at a time and blocks until every PE has
	// taken its slice (channel capacity 1 ⇒ at most two batches of scatter
	// slices are live), so driver-side memory stays O(batch), not O(|E|).
	// abortCh breaks the feed loop on both sides when any PE fails: a PE
	// blocked on its feed channel sits outside the transport, where the
	// runtime's abort flag could never reach it.
	feeds := make([]chan feedItem, cfg.P)
	for i := range feeds {
		feeds[i] = make(chan feedItem, 1)
	}
	abortCh := make(chan struct{})
	var abortOnce sync.Once
	abort := func() { abortOnce.Do(func() { close(abortCh) }) }
	go func() {
		defer func() {
			for _, ch := range feeds {
				close(ch)
			}
		}()
		pump := func(src BatchSource, insert bool) bool {
			if src == nil {
				return true
			}
			for {
				batch := src()
				if len(batch) == 0 {
					return true
				}
				slices := graph.ScatterEdgesPar(pt, batch, cfg.Threads)
				for i, ch := range feeds {
					select {
					case ch <- feedItem{edges: slices[i], insert: insert}:
					case <-abortCh:
						return false
					}
				}
			}
		}
		if pump(initial, false) {
			pump(inserts, true)
		}
	}()

	outcomes := make([]*peOutcome, cfg.P)
	souts := make([]*streamOutcome, cfg.P)
	start := time.Now()
	metrics, err := dist.Run(dist.Config{
		P: cfg.P, Threshold: cfg.Threshold, Indirect: cfg.Indirect || indirectDefault, Network: cfg.Network,
	}, func(pe *dist.PE) (err error) {
		defer func() {
			if r := recover(); r != nil {
				abort()
				panic(r)
			}
			if err != nil {
				abort()
			}
		}()
		if err := applyCodecs(pe.Q, cfg.Codec); err != nil {
			return err
		}
		out := newPEOutcome()
		outcomes[pe.Rank] = out
		so := &streamOutcome{}
		souts[pe.Rank] = so
		return streamBody(pe, pt, feeds[pe.Rank], abortCh, count, cfg, out, so)
	})
	abort() // normal completion: release the feeder if it is still blocked
	if err != nil {
		return nil, err
	}

	res := mergeOutcomes(outcomes, metrics, nil, cfg)
	res.Wall = time.Since(start)
	sr := &StreamResult{Res: res, Initial: res.Count, Count: res.Count}
	nb := len(souts[0].tuples)
	for _, so := range souts {
		if len(so.tuples) != nb {
			return nil, fmt.Errorf("core: stream feed skew: %d vs %d insert batches", len(so.tuples), nb)
		}
		sr.Work.add(so.work)
	}
	for b := 0; b < nb; b++ {
		var n0, n1, n2 uint64
		for _, so := range souts {
			n0 += so.tuples[b][0]
			n1 += so.tuples[b][1]
			n2 += so.tuples[b][2]
		}
		if n1%2 != 0 || n2%3 != 0 {
			// Globally n1 counts every two-new-edge triangle exactly twice
			// and n2 every three-new-edge triangle exactly three times; a
			// remainder means the pairing protocol lost or duplicated a record.
			return nil, fmt.Errorf("core: stream delta invariant violated in batch %d (n1=%d, n2=%d)", b, n1, n2)
		}
		d := n0 + n1/2 + n2/3
		sr.Deltas = append(sr.Deltas, d)
		sr.Count += d
	}
	res.Count = sr.Count
	return sr, nil
}

// recvFeed receives the next batch slice, aborting cleanly when a sibling
// PE has failed (the feeder may never close the channel in that case).
func recvFeed(feed <-chan feedItem, abortCh <-chan struct{}) (feedItem, bool, error) {
	select {
	case item, ok := <-feed:
		return item, ok, nil
	case <-abortCh:
		return feedItem{}, false, fmt.Errorf("core: stream feed aborted by sibling PE failure")
	}
}

// streamBody is the SPMD body of a streaming run: fold the initial batches,
// seal, count once with the regular machinery, then stage → delta-count →
// commit each inserted batch.
func streamBody(pe *dist.PE, pt *part.Partition, feed <-chan feedItem, abortCh <-chan struct{},
	count countBody, cfg Config, out *peOutcome, so *streamOutcome) error {
	sw := newStopwatch(pe.C, out)
	sb := graph.NewStreamBuilder(pt, pe.Rank)

	sw.phase(PhaseIngest)
	var pending feedItem
	havePending, feedDone := false, false
	for {
		item, ok, err := recvFeed(feed, abortCh)
		if err != nil {
			return err
		}
		if !ok {
			feedDone = true
			break
		}
		if item.insert {
			pending, havePending = item, true
			break
		}
		sb.Fold(item.edges, cfg.Threads)
	}

	sw.phase(PhaseBuild)
	var lg *graph.LocalGraph
	if feedDone {
		// Pure-ingestion stream: the feeder has already delivered every batch
		// to every PE (batches go to all PEs in order, the channels close
		// last), so a closed feed with no insert item means no PE will ever
		// see one. The resident rows are dead weight beside the sealed CSR;
		// SealRelease frees each one as it is copied, keeping the streaming
		// loader's peak below the one-shot driver's.
		lg = sb.SealRelease(cfg.Threads)
		sb = nil
	} else {
		lg = sb.Seal(cfg.Threads)
	}
	if cfg.Threshold <= 0 {
		// δ ∈ O(|E_i|), resolved per PE now that the resident size is known
		// (the queue was built before the first batch arrived, on the 1<<16
		// backstop). Per-PE δ values may differ: δ is a local buffering
		// bound, not a protocol constant.
		pe.Q.SetThreshold(streamThreshold(lg.LocalEdges()))
	}
	if err := count(pe, pt, lg, cfg, out, sw); err != nil {
		return err
	}
	if feedDone {
		// No insert batches anywhere (see above): skip the stream handler
		// installation and its barrier entirely — every PE takes this exit,
		// so no PE waits on the barrier below.
		sw.stop()
		return nil
	}

	// The initial count is globally quiescent here (the bodies end in
	// Drain), so re-registering chNeighEdge cannot race an in-flight
	// one-shot record; the barrier below guarantees every PE has its stream
	// handler installed before any PE can send the first staged record.
	ss := newStreamState(sb, pt.N())
	pe.Q.Handle(chNeighEdge, ss.handle)
	pe.C.Barrier()

	for {
		var item feedItem
		if havePending {
			item, havePending = pending, false
		} else {
			next, ok, err := recvFeed(feed, abortCh)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			item = next
		}
		sw.phase(PhaseStreamStage)
		sb.Stage(item.edges, cfg.Threads)
		sw.phase(PhaseStreamDelta)
		ss.countStaged(pe, pt)
		// Drain (inside countStaged) reached global data quiescence for this
		// batch; the barrier additionally orders batches: no PE can stage —
		// let alone ship — batch t+1 records before every PE has finished
		// counting batch t, and incoming records only dispatch during this
		// PE's own polls, which resume after its own t+1 staging.
		pe.C.Barrier()
		so.tuples = append(so.tuples, [3]uint64{ss.n0, ss.n1, ss.n2})
		ss.n0, ss.n1, ss.n2 = 0, 0, 0
		sw.phase(PhaseStreamCommit)
		sb.Commit(cfg.Threads)
	}
	so.work = ss.work
	sw.stop()
	return nil
}

// streamState is the per-PE delta-counting engine. It is single-threaded by
// design (the queue dispatches handlers only on this PE's own polls), with
// the per-batch parallelism living in Stage/Commit instead.
type streamState struct {
	sb         *graph.StreamBuilder
	n0, n1, n2 uint64
	ship       []uint64 // send scratch, reused across records

	// Hub bitsets. An old list of at least hubMin = ⌈n/64⌉ entries is
	// answered from a global-ID bitset over [0, n): at that length the
	// bitset's words are no more than the list's, so memory stays linear.
	// Bitsets are built lazily, once per vertex per batch — rowHub caches
	// resident rows (index+1 into held), a shipped list gets one per record
	// (a record arrives once per PE per batch) — and are cleared back onto
	// the free list after the batch's Drain.
	n       int
	hubMin  int
	rowHub  []int32        // local row → index+1 into held; 0 = not built
	hubRows []int32        // rows with a rowHub entry this batch
	held    []graph.Bitset // bitsets in use this batch
	free    []graph.Bitset // cleared bitsets ready for reuse

	work    StreamWork // cumulative kernel and shipment counters
	metered uint64     // intersection words already added to RecvWorkWords
}

// StreamWork counts the delta engine's work over all inserted batches. In a
// StreamResult the counters are summed over PEs, except MaxFanout (a max).
type StreamWork struct {
	// BitsetWords is the number of list elements probed against hub
	// bitsets, plus the old-list elements set while building them.
	BitsetWords uint64
	// MergeWords is the number of list elements handed to the adaptive
	// merge/gallop kernel (both operand lengths per intersection).
	MergeWords uint64
	// HubBitsets is the number of hub bitsets built.
	HubBitsets uint64
	// Records is the number of (vertex, PE) neighborhood records shipped.
	Records uint64
	// MaxFanout is the most PEs one vertex's record went to in one batch.
	MaxFanout int
}

func (w *StreamWork) add(o StreamWork) {
	w.BitsetWords += o.BitsetWords
	w.MergeWords += o.MergeWords
	w.HubBitsets += o.HubBitsets
	w.Records += o.Records
	w.MaxFanout = max(w.MaxFanout, o.MaxFanout)
}

func newStreamState(sb *graph.StreamBuilder, n uint64) *streamState {
	return &streamState{sb: sb, n: int(n), hubMin: max(1, graph.BitsetWords(int(n)))}
}

// listBits returns a bitset of list when it reaches hubMin entries, else nil.
func (s *streamState) listBits(list []graph.Vertex) graph.Bitset {
	if len(list) < s.hubMin {
		return nil
	}
	var bs graph.Bitset
	if k := len(s.free); k > 0 {
		bs, s.free = s.free[k-1], s.free[:k-1]
	} else {
		bs = graph.NewBitset(s.n)
	}
	bs.SetList(list)
	s.held = append(s.held, bs)
	s.work.HubBitsets++
	s.work.BitsetWords += uint64(len(list))
	return bs
}

// rowBits is listBits for resident row r (old list old), cached for the
// rest of the batch.
func (s *streamState) rowBits(r int32, old []graph.Vertex) graph.Bitset {
	if len(old) < s.hubMin {
		return nil
	}
	if s.rowHub == nil {
		s.rowHub = make([]int32, s.sb.NLocal())
	}
	if i := s.rowHub[r]; i != 0 {
		return s.held[i-1]
	}
	bs := s.listBits(old)
	s.rowHub[r] = int32(len(s.held))
	s.hubRows = append(s.hubRows, r)
	return bs
}

// releaseBits clears every bitset of the batch onto the free list.
func (s *streamState) releaseBits() {
	for _, bs := range s.held {
		bs.Clear()
		s.free = append(s.free, bs)
	}
	s.held = s.held[:0]
	for _, r := range s.hubRows {
		s.rowHub[r] = 0
	}
	s.hubRows = s.hubRows[:0]
}

// merge is the metered adaptive merge/gallop intersection.
func (s *streamState) merge(a, b []graph.Vertex) uint64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	s.work.MergeWords += uint64(len(a) + len(b))
	return graph.CountIntersect(a, b)
}

// probe is the metered bitset intersection |bs ∩ list|.
func (s *streamState) probe(bs graph.Bitset, list []graph.Vertex) uint64 {
	s.work.BitsetWords += uint64(len(list))
	return bs.CountList(list)
}

// oldDelta returns |old ∩ d|, through old's hub bitset when it has one.
func (s *streamState) oldDelta(old []graph.Vertex, bs graph.Bitset, d []graph.Vertex) uint64 {
	if bs != nil {
		return s.probe(bs, d)
	}
	return s.merge(old, d)
}

// pair accumulates the category intersections for one effective-new edge
// with endpoint neighborhood splits (oa=old, da=Δ, ba=hub bitset of oa or
// nil) and (ob, db, bb). Symmetric in the two endpoints; the four lists are
// sorted, duplicate-free, and old/Δ are disjoint per endpoint, so each
// closing vertex lands in exactly one category. |oa ∩ ob| probes the shorter
// old list against the longer one's bitset when either has one.
func (s *streamState) pair(oa, da []graph.Vertex, ba graph.Bitset, ob, db []graph.Vertex, bb graph.Bitset) {
	switch {
	case ba != nil && (bb == nil || len(ob) <= len(oa)):
		s.n0 += s.probe(ba, ob)
	case bb != nil:
		s.n0 += s.probe(bb, oa)
	default:
		s.n0 += s.merge(oa, ob)
	}
	s.n1 += s.oldDelta(oa, ba, db) + s.oldDelta(ob, bb, da)
	s.n2 += s.merge(da, db)
}

// handle processes one shipped record [v, |Δ(v)|, Δ(v)..., old(v)...]: the
// sender owns v, and this PE counts every pair (v, w) with w ∈ Δ(v) in its
// range (all such w are below v: the sender ships only to lower ranges).
func (s *streamState) handle(_ int, words []uint64) {
	v, k := words[0], int(words[1])
	dv, ov := words[2:2+k], words[2+k:]
	sb := s.sb
	first, last := sb.First(), sb.Last()
	bv := s.listBits(ov)
	i, _ := slices.BinarySearch(dv, first)
	for _, w := range dv[i:] {
		if w >= last || w >= v {
			break
		}
		r := int32(w - first)
		ow := sb.Row(r)
		s.pair(ow, sb.StagedRowOf(r), s.rowBits(r, ow), ov, dv, bv)
	}
}

// countStaged runs one batch's delta step on pe: walk the staged rows
// (deltaStep), Drain to global data quiescence, then release the batch's
// bitsets and meter its intersection work.
func (s *streamState) countStaged(pe *dist.PE, pt *part.Partition) {
	s.deltaStep(pt, func(dst int, rec []uint64) { pe.Q.Send(chNeighEdge, dst, rec) })
	pe.Q.Drain()
	pe.C.M.RecvWorkWords += int64(s.endBatch())
}

// deltaStep processes every staged new edge exactly once: edge (v,w) is
// counted at the owner of min(v,w). Row v's sorted staged Δ splits into
// three ranges:
//
//	w < first        → send [v, |Δ(v)|, Δ(v)..., old(v)...] once to each
//	                   owner of such a w, which counts all of its pairs
//	first ≤ w < last → count inline when w > v (w < v: counted at row w)
//	w ≥ last         → skip: w's owner has (w,v) staged with v < w and ships
//
// Both owners of a cut edge stage it (the scatter gives edges to both
// sides, and resident rows stay symmetric across PEs by induction), so
// every cut pair reaches its counting PE in exactly one record. send must
// not retain rec, which is reused across records.
func (s *streamState) deltaStep(pt *part.Partition, send func(dst int, rec []uint64)) {
	sb := s.sb
	first, last := sb.First(), sb.Last()
	for _, r := range sb.Staged() {
		dv := sb.StagedRowOf(r)
		if len(dv) == 0 {
			continue
		}
		v := first + graph.Vertex(r)
		ov := sb.Row(r)
		fanout := 0
		for i := 0; i < len(dv) && dv[i] < first; {
			dst := pt.Rank(dv[i])
			if fanout == 0 {
				s.ship = append(append(s.ship[:0], v, uint64(len(dv))), dv...)
				s.ship = append(s.ship, ov...)
			}
			send(dst, s.ship)
			fanout++
			_, hi := pt.Range(dst)
			j, _ := slices.BinarySearch(dv[i:], hi)
			i += j
		}
		s.work.Records += uint64(fanout)
		s.work.MaxFanout = max(s.work.MaxFanout, fanout)
		lo, _ := slices.BinarySearch(dv, v+1)
		for _, w := range dv[lo:] {
			if w >= last {
				break
			}
			rw := int32(w - first)
			ow := sb.Row(rw)
			s.pair(ov, dv, s.rowBits(r, ov), ow, sb.StagedRowOf(rw), s.rowBits(rw, ow))
		}
	}
}

// endBatch closes a globally drained batch: its bitsets go back onto the
// free list, and the intersection words it scanned (sent and received
// pairs alike) are returned for RecvWorkWords.
func (s *streamState) endBatch() uint64 {
	s.releaseBits()
	total := s.work.BitsetWords + s.work.MergeWords
	words := total - s.metered
	s.metered = total
	return words
}
