package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
)

// Hybrid (threads-per-rank) execution, §IV-D. The local phase is
// parallelized edge-centrically: workers steal small row chunks (dynamic
// chunking plays the role of TBB work stealing, so no cost-model
// prepartitioning is needed, as Green et al. observed). Communication stays
// funneled through the PE's main goroutine — MPI's funneled mode — which the
// paper identifies as the hybrid variant's bottleneck.

const hybridChunk = 128 // rows per stolen chunk

// hybridCetricLocal runs CETRIC's communication-free local phase with
// cfg.Threads workers and merges their private counters into state.
func hybridCetricLocal(lg *graph.LocalGraph, ori *graph.LocalOriented, state *countState, cfg Config) {
	rows := lg.Rows()
	var next atomic.Int64
	workers := make([]*countState, cfg.Threads)
	var wg sync.WaitGroup
	for t := 0; t < cfg.Threads; t++ {
		ws := newCountState(lg, cfg)
		workers[t] = ws
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(hybridChunk)) - hybridChunk
				if lo >= rows {
					return
				}
				hi := lo + hybridChunk
				if hi > rows {
					hi = rows
				}
				cetricLocalPhase(lg, ori, ws, lo, hi)
			}
		}()
	}
	wg.Wait()
	for _, ws := range workers {
		state.merge(ws)
	}
}

// hybridSend is a deferred neighborhood shipment produced by a worker and
// executed by the funneled communication goroutine. payload points into a
// pooled buffer: Queue.Send copies it, so the funnel returns the buffer to
// payloadPool right after the send.
type hybridSend struct {
	dst     int
	ch      int
	payload *[]uint64
}

// payloadPool recycles the worker → funnel shipment buffers (the free-list
// counterpart of the queue's retained per-destination flush buffers): a
// worker checks a buffer out and fills it, the funnel goroutine checks it
// back in once Queue.Send has copied the record, so the steady-state local
// phase allocates no payload memory per shipment.
var payloadPool = sync.Pool{New: func() any { return new([]uint64) }}

func getPayload(capHint int) *[]uint64 {
	bp := payloadPool.Get().(*[]uint64)
	if cap(*bp) < capHint {
		*bp = make([]uint64, 0, capHint)
	} else {
		*bp = (*bp)[:0]
	}
	return bp
}

// hybridDitricLocal runs DITRIC's combined local/send phase with
// cfg.Threads workers. Workers count local-local edges into private states
// and forward remote shipments to the main goroutine, which owns the queue
// (and therefore also executes all receive-side intersections — the
// funneled-communication bottleneck of Fig. 8).
func hybridDitricLocal(pe *dist.PE, lg *graph.LocalGraph, ori *graph.LocalOriented, state *countState, cfg Config, plc *placeRun) {
	pt := lg.Part
	nLocal := lg.NLocal()
	var next atomic.Int64
	workers := make([]*countState, cfg.Threads)
	sends := make(chan hybridSend, 4*cfg.Threads)
	var wg sync.WaitGroup
	for t := 0; t < cfg.Threads; t++ {
		ws := newCountState(lg, cfg)
		workers[t] = ws
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(hybridChunk)) - hybridChunk
				if lo >= nLocal {
					return
				}
				hi := lo + hybridChunk
				if hi > nLocal {
					hi = nLocal
				}
				ditricLocalRows(pe, pt, lg, ori, ws, lo, hi, sends, cfg.NoSurrogate, plc)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(sends)
	}()
	for s := range sends {
		pe.Q.Send(s.ch, s.dst, *s.payload)
		payloadPool.Put(s.payload)
	}
	for _, ws := range workers {
		state.merge(ws)
	}
}

// shipper emits the row sweeps' shipments (ditricLocalRows,
// cetricGlobalRows): with a funnel (sends != nil) each record checks a
// buffer out of payloadPool and the funnel returns it after Queue.Send has
// copied; without one, a buffer owned by the shipper is reused directly
// because Queue.Send copies synchronously. It also owns the per-row
// destination-dedup scratch: owner-driven delivery visits destinations in
// ascending order (av is ID-sorted, ranks own contiguous ranges) so a
// last-rank check suffices, but the placement overlay makes effective
// destinations non-monotone, so placed sweeps dedup with an epoch-stamped
// per-PE array instead. Shippers recycle through shipperPool so the
// steady-state sweep allocates nothing.
type shipper struct {
	pe    *dist.PE
	sends chan<- hybridSend
	buf   []uint64 // reused across shipments on the sends == nil path
	stamp []int64  // stamp[dst] == epoch ⇔ dst already shipped this row
	epoch int64
}

var shipperPool = sync.Pool{New: func() any { return new(shipper) }}

func getShipper(pe *dist.PE, sends chan<- hybridSend) *shipper {
	sh := shipperPool.Get().(*shipper)
	sh.pe, sh.sends = pe, sends
	if len(sh.stamp) < pe.P {
		sh.stamp = make([]int64, pe.P)
		sh.epoch = 0
	}
	return sh
}

func (sh *shipper) put() {
	sh.pe, sh.sends = nil, nil
	shipperPool.Put(sh)
}

func (sh *shipper) ship(ch, dst int, head, av []uint64) {
	if sh.sends != nil {
		bp := getPayload(len(head) + len(av))
		*bp = append(append(*bp, head...), av...)
		sh.sends <- hybridSend{dst: dst, payload: bp, ch: ch}
		return
	}
	sh.buf = append(append(sh.buf[:0], head...), av...)
	sh.pe.Q.Send(ch, dst, sh.buf)
}

// nextRow opens a new row's dedup epoch (epochs start at 1, so zeroed
// stamps never spuriously match).
func (sh *shipper) nextRow() { sh.epoch++ }

// firstVisit reports whether dst has not been shipped to yet this row, and
// marks it.
func (sh *shipper) firstVisit(dst int) bool {
	if sh.stamp[dst] == sh.epoch {
		return false
	}
	sh.stamp[dst] = sh.epoch
	return true
}

// ditricLocalRows processes local rows [lo,hi): local-local wedges are
// closed in place through the state's row marker, remote shipments go
// through the shipper (funneled or direct). With a placement overlay, each
// cut edge resolves to its effective destination (the hub's surrogate when
// moved, the owner otherwise); a surrogate that turns out to be this very
// PE gets its stored-table intersection inline instead of a self-send — the
// locals in av were already counted above, so the full receive path would
// double count them.
func ditricLocalRows(pe *dist.PE, pt *part.Partition, lg *graph.LocalGraph, ori *graph.LocalOriented,
	state *countState, lo, hi int, sends chan<- hybridSend, noSurrogate bool, plc *placeRun) {
	var hdr [2]uint64 // record header scratch, reused across shipments
	sh := getShipper(pe, sends)
	defer sh.put()
	for r := lo; r < hi; r++ {
		rv := int32(r)
		v := lg.GID(rv)
		av := ori.Out(rv)
		if len(av) < 2 {
			continue // a single out-neighbor cannot close a triangle
		}
		state.closeLocalWedges(ori, rv)
		if plc != nil && !noSurrogate {
			sh.nextRow()
			for _, u := range av {
				if lg.IsLocal(u) {
					continue
				}
				j := plc.redirect(pt.Rank(u), u)
				if j < 0 {
					continue // dead endpoint: empty list can't complete a triangle
				}
				if !sh.firstVisit(j) {
					continue
				}
				if j == pe.Rank {
					state.surrogateScan(pe.Rank, v, av, plc)
					continue
				}
				hdr[0] = v
				sh.ship(chNeigh, j, hdr[:1], av)
			}
			continue
		}
		lastRank := -1
		for _, u := range av {
			if lg.IsLocal(u) {
				continue
			}
			if noSurrogate {
				// Ablation: one per-edge record per cut edge (Algorithm 2
				// without Arifuzzaman's dedup).
				hdr[0], hdr[1] = v, u
				sh.ship(chNeighEdge, pt.Rank(u), hdr[:2], av)
				continue
			}
			// Surrogate dedup: av is ID-sorted and ranks own contiguous
			// ranges, so equal destinations are adjacent.
			if j := pt.Rank(u); j != lastRank {
				hdr[0] = v
				sh.ship(chNeigh, j, hdr[:1], av)
				lastRank = j
			}
		}
	}
}

// closeLocalWedges closes the wedge (rv, u) of every local u in A(rv)
// through the state's local row marker. Row space puts locals first, so
// they are a prefix of OutRows. The marker is cleared before returning, so
// the row's shipments that follow can dispatch receive handlers freely.
func (s *countState) closeLocalWedges(o *graph.LocalOriented, rv int32) {
	av := o.OutRows(rv)
	nLoc := graph.Vertex(s.lg.NLocal())
	if len(av) < 2 || av[0] >= nLoc {
		return
	}
	m := &s.mark
	o.MarkRows(m, av)
	for _, ur := range av {
		if ur >= nLoc {
			break
		}
		s.closeWedge(m, o, rv, int32(ur))
	}
	m.Clear()
}

// merge folds a worker's private counters into s.
func (s *countState) merge(w *countState) {
	s.count += w.count
	s.t1 += w.t1
	s.t2 += w.t2
	s.t3 += w.t3
	s.recvWork += w.recvWork
	s.probes.Add(w.probeCounts())
	if s.lcc {
		for i, d := range w.deltaRows {
			s.deltaRows[i] += d
		}
		for gid, d := range w.side {
			if s.side == nil {
				s.side = make(map[graph.Vertex]uint64)
			}
			s.side[gid] += d
		}
	}
	s.triangles = append(s.triangles, w.triangles...)
}

// recvPool implements the paper's hybrid global phase: the communication
// goroutine (MPI funneled mode) polls messages and turns received
// neighborhoods into intersection tasks, which a pool of workers consumes
// into private counters. The funneled dispatcher is the bottleneck the paper
// measures in Fig. 8.
type recvPool struct {
	tasks   chan recvTask
	wg      sync.WaitGroup
	workers []*countState
}

type recvTask struct {
	v       graph.Vertex
	list    []uint64
	src     int    // sender rank (placement: skips its co-located stored hubs)
	release func() // unpins the decode arena the list aliases; may be nil
}

// newRecvPool starts threads workers that intersect shipped neighborhoods
// against out() (the receiver-side A-lists: full for DITRIC, contracted for
// CETRIC; resolved lazily because contraction happens after handler
// registration). Task payload slices alias pooled decode-arena memory; the
// submitting handler pins the arena (Queue.PinPayload) and the worker
// releases it once the list has been row-translated and counted, so no
// copies are needed and the arena recycles without allocation.
func newRecvPool(threads int, lg *graph.LocalGraph, cfg Config, out func() *graph.LocalOriented, place func() *placeRun) *recvPool {
	rp := &recvPool{tasks: make(chan recvTask, 8*threads)}
	for t := 0; t < threads; t++ {
		ws := newCountState(lg, cfg)
		rp.workers = append(rp.workers, ws)
		rp.wg.Add(1)
		go func() {
			defer rp.wg.Done()
			for task := range rp.tasks {
				ws.recvNeighAt(task.src, task.v, task.list, out(), place())
				if task.release != nil {
					task.release()
				}
			}
		}()
	}
	return rp
}

// submit enqueues one received neighborhood (blocks when workers lag —
// exactly the backpressure a funneled comm thread experiences). release is
// called once the worker is done with list.
func (rp *recvPool) submit(src int, v graph.Vertex, list []uint64, release func()) {
	rp.tasks <- recvTask{v: v, list: list, src: src, release: release}
}

// drain closes the pool, waits for the workers, and merges their counters.
func (rp *recvPool) drain(into *countState) {
	close(rp.tasks)
	rp.wg.Wait()
	for _, ws := range rp.workers {
		into.merge(ws)
	}
}
