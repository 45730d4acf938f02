package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
)

// Overlapped phase pipeline (Config.Overlap). The barriered bodies run
// local → global strictly separated: every cut neighborhood stays buffered
// until the queue threshold overflows or the post-local Drain, and all
// receive-side intersection work serializes into the drain, so the PE with
// the heaviest incoming cut neighborhoods becomes the straggler the whole
// cluster waits for. The pipeline removes both serializations:
//
//   - the local phase flushes shipments eagerly as row chunks complete
//     (Queue.FlushIfOver at a watermark far below δ), so receivers see cut
//     neighborhoods while senders are still counting;
//   - received records park on a per-PE steal deque, and the same
//     chunk-stealing workers that process local rows drain it concurrently
//     — global-phase intersections start before the local phase finishes,
//     and a skew-loaded receive side is chewed through by every thread
//     plus the funnel instead of being serialized behind the local phase;
//   - the termination detector (Queue.DrainWith) steals deque batches
//     whenever it would otherwise idle-wait, and meters genuine idle time
//     into Metrics.IdleNs.
//
// Counts are exactly identical to the barriered path: every record is
// processed by the same recvNeigh/recvNeighEdge code against the same
// receiver structure, only earlier and on a different goroutine.

// overlapFlushWords is the eager flush watermark in words: low enough that
// shipments leave while the local phase still runs, high enough that frames
// stay worth their α cost. The aggregation threshold δ still bounds queue
// memory; this only moves flushes earlier.
const overlapFlushWords = 1 << 10

// overlapWatermark resolves the eager-flush watermark for aggregation
// threshold δ: min(profileWatermark, δ/2). The profile watermark is the
// configured costmodel profile's α/β break-even frame size
// (Profile.FlushWatermark) — frames below it cost more in startup latency
// than overlapping can hide, which is why the old fixed 1024-word constant
// lost to the barriered path on high-α (cloud/WAN) parameterizations: it
// sliced shipments into frames an order of magnitude below those profiles'
// break-even. With no profile configured the historical constant stands
// (it is within a factor of two of the supercomputer profile's break-even,
// the machine the paper measured on).
//
// The δ/2 clamp is load-bearing on both paths: DefaultThreshold floors δ
// at 1024 — exactly overlapFlushWords — so on tiny graphs (and explicit
// small -delta values) an unclamped watermark would sit at or above δ, and
// eager flushing would silently never fire before the overflow flush.
// Clamping to half of δ keeps the watermark strictly below the overflow
// boundary for every δ > 1.
func overlapWatermark(threshold int, profile string) int {
	wm := overlapFlushWords
	if profile != "" {
		if p, err := costmodel.ByName(profile); err == nil {
			wm = p.FlushWatermark()
		}
	}
	if half := threshold / 2; half < wm {
		wm = half
	}
	return max(wm, 1)
}

// dequeBatch is how many parked records a worker steals per deque lock
// acquisition.
const dequeBatch = 32

// dequeHighWater is the backpressure bound on decoded, arena-pinned
// records, enforced at the handler: past it a received record is
// intersected inline on the funnel instead of parked (the barriered
// single-threaded behavior), so the deque can never hold more than the
// high-water mark plus one frame's records — resident decoded memory stays
// O(dequeHighWater), not O(total incoming traffic), and the queue's
// linear-memory guarantee survives the overlap. The stage funnel
// additionally stops polling above the mark, preferring to leave frames
// codec-encoded in the transport and help drain. This is the overlap
// analogue of recvPool's bounded submit channel.
const dequeHighWater = 1 << 12

// recvRecord is one received global-phase record parked on the steal deque.
// list aliases a pinned decode arena; release gives it back after the
// record has been intersected.
type recvRecord struct {
	v, u    graph.Vertex // u is meaningful only for edge records
	list    []uint64
	release func()
	src     int  // sender rank (placement: skips its co-located stored hubs)
	edge    bool // chNeighEdge shipment (no-surrogate ablation)
}

// stealDeque is the per-PE queue of received records awaiting intersection,
// shared by the chunk-stealing workers, the funnel, and the termination
// detector's progress callback. It is a mutex-guarded growable ring: pushes
// come only from the funnel goroutine (inside handler dispatch), pops come
// from any worker in batches. Once the ring has grown to the peak backlog,
// steady-state push/pop allocates nothing (see
// BenchmarkStealDequeSteadyState and the CI allocation gate).
type stealDeque struct {
	mu       sync.Mutex
	nonEmpty sync.Cond
	buf      []recvRecord
	head     int
	n        int
	closed   bool
}

func newStealDeque() *stealDeque {
	dq := &stealDeque{}
	dq.nonEmpty.L = &dq.mu
	return dq
}

// push parks one record. Only the funnel goroutine pushes, from inside a
// queue handler; pushing after close is a bug in the drain ordering.
func (dq *stealDeque) push(r recvRecord) {
	dq.mu.Lock()
	if dq.closed {
		dq.mu.Unlock()
		panic("core: push on closed steal deque")
	}
	if dq.n == len(dq.buf) {
		dq.grow()
	}
	dq.buf[(dq.head+dq.n)%len(dq.buf)] = r
	dq.n++
	dq.mu.Unlock()
	dq.nonEmpty.Signal()
}

// grow doubles the ring (called with mu held).
func (dq *stealDeque) grow() {
	next := make([]recvRecord, max(64, 2*len(dq.buf)))
	for i := 0; i < dq.n; i++ {
		next[i] = dq.buf[(dq.head+i)%len(dq.buf)]
	}
	dq.buf = next
	dq.head = 0
}

// popBatch steals up to len(dst) records from the front. With wait set it
// blocks until records arrive or the deque is closed; either way a return
// of 0 with wait set means closed-and-empty, and 0 without wait just means
// empty right now. Popped ring slots are cleared so arenas don't stay
// pinned by stale references.
func (dq *stealDeque) popBatch(dst []recvRecord, wait bool) int {
	dq.mu.Lock()
	for dq.n == 0 {
		if dq.closed || !wait {
			dq.mu.Unlock()
			return 0
		}
		dq.nonEmpty.Wait()
	}
	k := min(len(dst), dq.n)
	for i := 0; i < k; i++ {
		j := (dq.head + i) % len(dq.buf)
		dst[i] = dq.buf[j]
		dq.buf[j] = recvRecord{}
	}
	dq.head = (dq.head + k) % len(dq.buf)
	dq.n -= k
	dq.mu.Unlock()
	return k
}

// size returns the current backlog (for the funnel's backpressure check).
func (dq *stealDeque) size() int {
	dq.mu.Lock()
	n := dq.n
	dq.mu.Unlock()
	return n
}

// close marks the deque complete (no further pushes) and wakes blocked
// poppers. Called after DrainWith returns, when global quiescence
// guarantees no handler can fire again.
func (dq *stealDeque) close() {
	dq.mu.Lock()
	dq.closed = true
	dq.mu.Unlock()
	dq.nonEmpty.Broadcast()
}

// globalFn intersects one parked record into ws. DITRIC intersects against
// the full oriented A-lists; CETRIC against the contracted cut graph with
// type-3 classification.
type globalFn func(ws *countState, r recvRecord)

// drainBatch steals and processes up to one batch, releasing payload pins.
// Returns the number of records processed.
func drainBatch(dq *stealDeque, scratch []recvRecord, ws *countState, fn globalFn, wait bool) int {
	k := dq.popBatch(scratch, wait)
	for i := 0; i < k; i++ {
		fn(ws, scratch[i])
		if scratch[i].release != nil {
			scratch[i].release()
		}
		scratch[i] = recvRecord{}
	}
	return k
}

// installHandlers installs the neighborhood handlers of the overlapped
// pipeline: records are parked on the deque with their decode arena pinned
// instead of being intersected inside the handler, so the funnel returns to
// polling immediately and any worker can pick the record up. Past the
// high-water mark the handler intersects inline instead (handlers only fire
// inside this pipeline's own polls, which every algorithm issues strictly
// after its receiver structure is ready, so inline processing is always
// legal), bounding the parked backlog.
func (op *overlapPipeline) installHandlers() {
	pe := op.pe
	park := func(r recvRecord) {
		if op.dq.size() >= dequeHighWater {
			op.fn(op.state, r)
			return
		}
		r.release = pe.Q.PinPayload()
		op.dq.push(r)
	}
	pe.Q.Handle(chNeigh, func(src int, words []uint64) {
		park(recvRecord{v: words[0], list: words[1:], src: src})
	})
	pe.Q.Handle(chNeighEdge, func(src int, words []uint64) {
		park(recvRecord{v: words[0], u: words[1], list: words[2:], src: src, edge: true})
	})
}

// overlapPipeline coordinates one PE's overlapped counting phases: one or
// more emission stages (chunk-stolen compute that may ship records) followed
// by finish (drain to global quiescence). With Threads > 1 it owns the
// worker pool and the funnel; with Threads == 1 everything interleaves on
// the PE's single goroutine, which keeps the attribution exact.
type overlapPipeline struct {
	pe      *dist.PE
	sw      *stopwatch
	state   *countState // funnel/main-goroutine state
	dq      *stealDeque
	fn      globalFn
	threads int

	// flushWords is the eager-flush watermark: overlapFlushWords clamped
	// below the queue's δ (overlapWatermark), resolved once per run — except
	// under -profile=measured, where maybeRecalibrate re-fits it from the
	// live α/β estimate as samples accumulate.
	flushWords int
	// measured marks a -profile=measured run; recalTick spaces the re-fits.
	measured  bool
	recalTick int

	workers   []*countState  // private per-worker states (threads > 1)
	scratches [][]recvRecord // per-worker steal scratch
	fscratch  []recvRecord   // funnel/main steal scratch

	overlapNs atomic.Int64 // receive work done during emission stages (pre-drain)
}

func newOverlapPipeline(pe *dist.PE, sw *stopwatch, lg *graph.LocalGraph, cfg Config,
	state *countState, fn globalFn) *overlapPipeline {
	op := &overlapPipeline{
		pe: pe, sw: sw, state: state, dq: newStealDeque(), fn: fn,
		threads:    cfg.Threads,
		flushWords: overlapWatermark(pe.Q.Threshold(), cfg.Profile),
		measured:   cfg.Profile == costmodel.MeasuredName,
		fscratch:   make([]recvRecord, dequeBatch),
	}
	if cfg.Threads > 1 {
		op.workers = make([]*countState, cfg.Threads)
		op.scratches = make([][]recvRecord, cfg.Threads)
		for t := 0; t < cfg.Threads; t++ {
			op.workers[t] = newCountState(lg, cfg)
			op.scratches[t] = make([]recvRecord, dequeBatch)
		}
	}
	return op
}

// maybeRecalibrate re-fits the eager-flush watermark from the live α/β
// estimate under -profile=measured. The static profile tables guess the
// break-even frame size; the measured profile recovers it from this run's
// own frame-latency samples (costmodel.Calibrate over pe.C.M), so the
// watermark tracks the transport actually underneath. Called only from the
// goroutine that owns flushWords — stageSeq's single timeline or the
// stagePar funnel, which are also the only writers of pe.C.M's latency
// sums — every 64 flush checks, with the same δ/2 clamp as
// overlapWatermark.
func (op *overlapPipeline) maybeRecalibrate() {
	if !op.measured {
		return
	}
	op.recalTick++
	if op.recalTick&63 != 0 {
		return
	}
	if p, ok := costmodel.Calibrate(op.pe.C.M); ok {
		wm := p.FlushWatermark()
		if half := op.pe.Q.Threshold() / 2; half < wm {
			wm = half
		}
		op.flushWords = max(wm, 1)
	}
}

// stage runs one emission stage over rows [0, rows) under the named
// stopwatch phase. work processes one chunk into ws, shipping records
// either directly (sends == nil, single-threaded) or through the funnel.
// canSteal gates the whole receive side: a stage that cannot intersect yet
// (CETRIC's local stage runs before the contracted cut graph exists) does
// not poll either — incoming frames stay codec-encoded in the transport,
// exactly where the barriered path leaves them, so deferring costs no
// decoded-arena memory and the queue's O(δ) profile is untouched.
func (op *overlapPipeline) stage(phase string, rows int, canSteal bool,
	work func(ws *countState, lo, hi int, sends chan<- hybridSend)) {
	op.sw.phase(phase)
	if op.threads <= 1 {
		op.stageSeq(phase, rows, canSteal, work)
		return
	}
	op.stagePar(rows, canSteal, work)
}

// stageSeq interleaves compute, eager flushing, ingestion, and deque
// draining on the PE's only goroutine. The stopwatch switches between the
// emission phase and global/recv at chunk boundaries, so the per-phase walls
// are exact even though the work is interleaved.
func (op *overlapPipeline) stageSeq(phase string, rows int, canSteal bool,
	work func(ws *countState, lo, hi int, sends chan<- hybridSend)) {
	pe := op.pe
	for lo := 0; lo < rows; lo += hybridChunk {
		hi := min(lo+hybridChunk, rows)
		work(op.state, lo, hi, nil)
		if !canSteal {
			continue
		}
		pe.Q.FlushIfOver(op.flushWords)
		op.maybeRecalibrate()
		op.sw.phase(PhaseGlobalRecv)
		t0 := time.Now()
		did := pe.Q.Poll()
		for drainBatch(op.dq, op.fscratch, op.state, op.fn, false) > 0 {
			did = true
		}
		if did {
			op.overlapNs.Add(time.Since(t0).Nanoseconds())
		}
		op.sw.phase(phase)
	}
}

// stagePar fans the chunks out to the worker pool. Workers ship through the
// sends channel and opportunistically steal deque batches between chunks;
// the funnel forwards shipments, flushes eagerly, polls the network (which
// parks records on the deque), and steals itself when it would otherwise
// wait. The stage ends when every chunk is processed and every shipment has
// been handed to the queue — residual deque work is finish's job. With
// canSteal unset the funnel does not poll at all: it blocks on the workers'
// completion while incoming frames wait, still encoded, in the transport.
//
// Phase attribution is coarse here by design: receive work runs
// concurrently with emission across the pool, so it cannot be subtracted
// from the emission wall — the whole stage stays under the emission phase
// and the receive CPU time is surfaced as Metrics.OverlapNs instead
// (stageSeq, with one timeline, attributes exactly).
func (op *overlapPipeline) stagePar(rows int, canSteal bool,
	work func(ws *countState, lo, hi int, sends chan<- hybridSend)) {
	pe := op.pe
	var next atomic.Int64
	sends := make(chan hybridSend, 4*op.threads)
	var wg sync.WaitGroup
	for t := 0; t < op.threads; t++ {
		wg.Add(1)
		go func(ws *countState, scratch []recvRecord) {
			defer wg.Done()
			for {
				lo := int(next.Add(hybridChunk)) - hybridChunk
				if lo >= rows {
					return
				}
				hi := min(lo+hybridChunk, rows)
				work(ws, lo, hi, sends)
				if !canSteal {
					continue
				}
				// Between chunks, chew a bounded amount of parked global
				// work — bounded so local emission keeps flowing and the
				// deque never starves the senders.
				t0 := time.Now()
				stolen := 0
				for stolen < 4 && drainBatch(op.dq, scratch, ws, op.fn, false) > 0 {
					stolen++
				}
				if stolen > 0 {
					op.overlapNs.Add(time.Since(t0).Nanoseconds())
				}
			}
		}(op.workers[t], op.scratches[t])
	}
	go func() {
		wg.Wait()
		close(sends)
	}()
	if !canSteal {
		// Receive side deferred: just forward shipments (there are none in
		// CETRIC's local stage, but the contract allows them) and park the
		// funnel until the workers finish.
		for s := range sends {
			pe.Q.Send(s.ch, s.dst, *s.payload)
			payloadPool.Put(s.payload)
			pe.Q.FlushIfOver(op.flushWords)
			op.maybeRecalibrate()
		}
		return
	}
	for {
		select {
		case s, ok := <-sends:
			if !ok {
				return
			}
			pe.Q.Send(s.ch, s.dst, *s.payload)
			payloadPool.Put(s.payload)
			pe.Q.FlushIfOver(op.flushWords)
			op.maybeRecalibrate()
		default:
			// No shipment pending: ingest incoming frames (handlers park
			// records on the deque) unless the decoded backlog is past the
			// high-water mark — then leave frames encoded in the transport
			// and help the workers drain instead.
			if op.dq.size() < dequeHighWater && pe.Q.Poll() {
				continue
			}
			t0 := time.Now()
			if drainBatch(op.dq, op.fscratch, op.state, op.fn, false) > 0 {
				op.overlapNs.Add(time.Since(t0).Nanoseconds())
				continue
			}
			runtime.Gosched()
		}
	}
}

// finish drives the pipeline to completion: the termination detector runs
// with a progress callback that steals deque batches (so waiting for
// stragglers turns into useful work), the deque is closed once global
// quiescence is certain, residual records are drained, and worker states
// merge into the PE's. Runs under global/recv; detector wait time is
// metered as IdleNs and split into overlap/idle by the stopwatch.
func (op *overlapPipeline) finish() {
	op.sw.phase(PhaseGlobalRecv)
	pe := op.pe
	var wg sync.WaitGroup
	for t := 0; t < len(op.workers); t++ {
		wg.Add(1)
		go func(ws *countState, scratch []recvRecord) {
			defer wg.Done()
			for drainBatch(op.dq, scratch, ws, op.fn, true) > 0 {
			}
		}(op.workers[t], op.scratches[t])
	}
	pe.Q.DrainWith(func() bool {
		// Drain the whole backlog, not one batch: the detector's polls can
		// decode frames faster than a lone batch per stall would consume
		// them (with workers running this just competes benignly).
		did := false
		for drainBatch(op.dq, op.fscratch, op.state, op.fn, false) > 0 {
			did = true
		}
		return did
	})
	op.dq.close()
	wg.Wait()
	for drainBatch(op.dq, op.fscratch, op.state, op.fn, false) > 0 {
	}
	for _, ws := range op.workers {
		op.state.merge(ws)
	}
	op.workers = op.workers[:0]
	pe.C.M.OverlapNs += op.overlapNs.Load()
}

// ditricOverlap is DITRIC's combined local/global phase under the
// overlapped pipeline: one emission stage over the local rows (stealing
// enabled from the start — the receiver structure is the already-built
// oriented graph), then finish.
func ditricOverlap(pe *dist.PE, pt *part.Partition, lg *graph.LocalGraph, ori *graph.LocalOriented,
	state *countState, cfg Config, sw *stopwatch, plc *placeRun) {
	fn := func(ws *countState, r recvRecord) {
		if r.edge {
			ws.recvNeighEdge(r.v, r.u, r.list, ori)
			return
		}
		ws.recvNeighAt(r.src, r.v, r.list, ori, plc)
	}
	op := newOverlapPipeline(pe, sw, lg, cfg, state, fn)
	op.installHandlers()
	pe.Q.Handle(chDelta, state.handleDelta)
	if plc != nil {
		// Hub shipment: surrogate tables are complete cluster-wide before
		// any PE can emit counting records (the drain inside ship is
		// collective), so the placed receive path below never races it.
		pe.Q.Handle(chHubShip, plc.handleShip)
		sw.phase(PhasePlace)
		plc.ship(pe, ori)
	}
	pe.C.Barrier() // handlers are live on every PE before any eager flush
	op.stage(PhaseLocal, lg.NLocal(), true, func(ws *countState, lo, hi int, sends chan<- hybridSend) {
		ditricLocalRows(pe, pt, lg, ori, ws, lo, hi, sends, cfg.NoSurrogate, plc)
	})
	op.finish()
}

// cetricOverlap is CETRIC under the overlapped pipeline. The local stage is
// communication-free and defers the receive side entirely: other PEs reach
// their send sweeps while we count, but their cut neighborhoods cannot be
// intersected before our contraction, so they wait codec-encoded in the
// transport (the same place the barriered path leaves them) instead of
// being decoded onto the deque. The send sweep then runs as an overlapped
// stage — emission interleaved with ingestion and stealing — and finish
// drains the rest.
func cetricOverlap(pe *dist.PE, pt *part.Partition, lg *graph.LocalGraph, ori *graph.LocalOriented,
	state *countState, cfg Config, sw *stopwatch) {
	var cut *graph.LocalOriented // assigned after the local stage, before any steal
	var plc *placeRun            // assigned with cut, same ordering argument
	fn := func(ws *countState, r recvRecord) {
		if r.edge {
			ws.t3 += ws.recvNeighEdge(r.v, r.u, r.list, cut)
			return
		}
		ws.t3 += ws.recvNeighAt(r.src, r.v, r.list, cut, plc)
	}
	op := newOverlapPipeline(pe, sw, lg, cfg, state, fn)
	op.installHandlers()
	pe.Q.Handle(chDelta, state.handleDelta)
	pe.C.Barrier()
	op.stage(PhaseLocal, lg.Rows(), false, func(ws *countState, lo, hi int, _ chan<- hybridSend) {
		cetricLocalPhase(lg, ori, ws, lo, hi)
	})
	sw.phase(PhaseContraction)
	cut = ori.ContractPar(cfg.Threads)
	cut.BuildHubsPar(cfg.hubMinDegree(), cfg.Threads)
	// Placement over the *cut* graph: CETRIC's global phase ships and
	// intersects contracted A-lists, so the nomination weights and the
	// stored-hub tables must model exactly those.
	plc = computePlacement(pe, lg, cut, cfg)
	if plc != nil {
		pe.Q.Handle(chHubShip, plc.handleShip)
		sw.phase(PhasePlace)
		plc.ship(pe, cut)
	}
	op.stage(PhaseGlobal, lg.NLocal(), true, func(ws *countState, lo, hi int, sends chan<- hybridSend) {
		cetricGlobalRows(pe, pt, lg, cut, ws, lo, hi, sends, cfg.NoSurrogate, plc)
	})
	op.finish()
}

// cetricGlobalRows ships the contracted cut neighborhoods of local rows
// [lo,hi): (v, A(v)...) records with the surrogate dedup, or per-edge
// (v, u, A(v)...) records under the no-surrogate ablation. Shipments go
// through sends (funneled) or directly to the queue when sends is nil —
// the same contract as ditricLocalRows. With a placement overlay each cut
// edge resolves to its effective destination; a moved hub whose surrogate
// is this PE is intersected inline against the stored table (every u in a
// cut A-list is remote, so there is no local pass to double count).
func cetricGlobalRows(pe *dist.PE, pt *part.Partition, lg *graph.LocalGraph, cut *graph.LocalOriented,
	state *countState, lo, hi int, sends chan<- hybridSend, noSurrogate bool, plc *placeRun) {
	var hdr [2]uint64 // record header scratch
	sh := getShipper(pe, sends)
	defer sh.put()
	for r := lo; r < hi; r++ {
		v := lg.GID(int32(r))
		av := cut.Out(int32(r))
		if len(av) < 2 {
			continue
		}
		if plc != nil && !noSurrogate {
			sh.nextRow()
			for _, u := range av {
				j := plc.redirect(pt.Rank(u), u)
				if j < 0 {
					continue // dead endpoint: empty list can't complete a triangle
				}
				if !sh.firstVisit(j) {
					continue
				}
				if j == pe.Rank {
					state.t3 += state.surrogateScan(pe.Rank, v, av, plc)
					continue
				}
				hdr[0] = v
				sh.ship(chNeigh, j, hdr[:1], av)
			}
			continue
		}
		lastRank := -1
		for _, u := range av {
			if noSurrogate {
				hdr[0], hdr[1] = v, u
				sh.ship(chNeighEdge, pt.Rank(u), hdr[:2], av)
				continue
			}
			// Surrogate dedup: av is ID-sorted, ranks are contiguous.
			if j := pt.Rank(u); j != lastRank {
				hdr[0] = v
				sh.ship(chNeigh, j, hdr[:1], av)
				lastRank = j
			}
		}
	}
}
