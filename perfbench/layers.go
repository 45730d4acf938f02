package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
)

// metricDef is one reported metric. moves and where record, for a per-layer
// metric, the end-to-end metric it should move and the workloads where it
// should show or stay flat, so a later change can name its claim and its
// no-change control by these names.
type metricDef struct {
	name, unit, better string
	moves, where       string
}

// endToEnd are the metrics of an untraced run, in output order.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "seq_s", unit: "s", better: "lower"},
	{name: "cetric_s", unit: "s", better: "lower"},
	{name: "ditric_s", unit: "s", better: "lower"},
	{name: "tk2d_s", unit: "s", better: "lower"},
	{name: "lcc_s", unit: "s", better: "lower"},
	{name: "stream_s", unit: "s", better: "lower"},
	{name: "stream_initial_s", unit: "s", better: "lower"},
	{name: "batch_p50_ms", unit: "ms", better: "lower"},
	{name: "batch_p90_ms", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "bottleneck_words", unit: "words", better: "lower"},
	{name: "max_msgs", unit: "count", better: "lower"},
}

// resultCalls are the traced calls whose Result feeds comm.<label>.*,
// transport.<label>.* and core.<label>.*, with the core phases each reports
// (metric suffix → Result.Phases key).
var resultCalls = []struct {
	label, wall string
	phases      [][2]string
}{
	{"cetric", "cetric_s", [][2]string{{"preprocess", core.PhasePreprocess}, {"local", core.PhaseLocal},
		{"contraction", core.PhaseContraction}, {"global", core.PhaseGlobal}, {"idle", core.PhaseOverlapIdle}}},
	{"ditric", "ditric_s", [][2]string{{"preprocess", core.PhasePreprocess}, {"local", core.PhaseLocal},
		{"global", core.PhaseGlobal}, {"idle", core.PhaseOverlapIdle}}},
	{"tk2d", "tk2d_s", [][2]string{{"preprocess", core.PhasePreprocess}, {"local", core.PhaseLocal},
		{"global", core.PhaseGlobal}, {"idle", core.PhaseOverlapIdle}}},
	{"lcc", "lcc_s", [][2]string{{"preprocess", core.PhasePreprocess}, {"local", core.PhaseLocal},
		{"contraction", core.PhaseContraction}, {"global", core.PhaseGlobal}, {"idle", core.PhaseOverlapIdle},
		{"postprocess", core.PhasePostprocess}}},
	{"stream", "stream_s, batch_p50_ms", [][2]string{{"stage", core.PhaseStreamStage}, {"delta", core.PhaseStreamDelta},
		{"commit", core.PhaseStreamCommit}, {"idle", core.PhaseOverlapIdle}}},
}

// perLayer lists the metrics of a traced run, in output order.
var perLayer = func() []metricDef {
	const all = "all workloads"
	defs := []metricDef{
		{"graph.scatter_s", "s", "lower", "cetric_s, ditric_s", "largest share on rgg-stream"},
		{"graph.build_s", "s", "lower", "cetric_s, ditric_s", "largest share on rgg-stream"},
		{"graph.orient_s", "s", "lower", "cetric_s, ditric_s", "largest share on rgg-stream"},
		{"graph.contract_s", "s", "lower", "cetric_s", "largest share on rgg-stream"},
		{"graph.kernel_s", "s", "lower", "cetric_s, not lcc_s", "hub path on rmat-skew only"},
		{"graph.kernel_words", "words", "lower", "cetric_s, not lcc_s", "hub path on rmat-skew only"},
		{"graph.kernel_words_per_s", "words/s", "higher", "cetric_s, not lcc_s", "hub path on rmat-skew only"},
		{"graph.hub_rows", "count", "higher", "cetric_s", "nonzero on rmat-skew only"},
		{"graph.seq_kernel_s", "s", "lower", "seq_s", all},
		{"graph.block_s", "s", "lower", "tk2d_s", all},
		{"graph.stream_seal_s", "s", "lower", "stream_initial_s, stream_s", "rgg-stream"},
		{"graph.stream_stage_s", "s", "lower", "batch_p50_ms, stream_s", "rgg-stream"},
		{"graph.stream_commit_s", "s", "lower", "batch_p50_ms, stream_s", "rgg-stream"},
		{"comm.replay_s", "s", "lower", "ditric_s, cetric_s", "rmat-skew; near 0 on rgg-stream"},
		{"comm.replay_payload_words", "words", "lower", "ditric_s, cetric_s", "rmat-skew; near 0 on rgg-stream"},
		{"comm.replay_frames", "count", "lower", "ditric_s, cetric_s", "rmat-skew; near 0 on rgg-stream"},
		{"comm.replay_wire_bytes", "bytes", "lower", "ditric_s, cetric_s", "rmat-skew; near 0 on rgg-stream"},
		{"comm.bcast_s", "s", "lower", "tk2d_s", "heavier on rgg-stream"},
	}
	for _, rc := range resultCalls {
		defs = append(defs,
			metricDef{"comm." + rc.label + ".wire_bytes", "bytes", "lower", rc.wall, "rmat-skew"},
			metricDef{"comm." + rc.label + ".frames", "count", "lower", rc.wall, "rmat-skew"},
			metricDef{"comm." + rc.label + ".idle_max_s", "s", "lower", rc.wall, "rmat-skew"},
			metricDef{"comm." + rc.label + ".recv_work_max", "words", "lower", rc.wall, "rmat-skew"},
			metricDef{"transport." + rc.label + ".send_ns_per_frame", "ns", "lower", rc.wall, all})
	}
	defs = append(defs, metricDef{"dist.spawn_s", "s", "lower", "every p=2 wall", all})
	for _, rc := range resultCalls {
		for _, ph := range rc.phases {
			defs = append(defs, metricDef{"core." + rc.label + "." + ph[0] + "_s", "s", "lower", rc.wall, all})
		}
	}
	return defs
}()

// resultMetrics reads the counters a traced call's Result already carries.
func resultMetrics(label string, phases [][2]string, res *tricount.Result, vals map[string]float64) {
	a := res.Agg
	vals["comm."+label+".wire_bytes"] = float64(a.TotalEncodedBytes)
	vals["comm."+label+".frames"] = float64(a.TotalFrames)
	vals["comm."+label+".idle_max_s"] = float64(a.MaxIdleNs) / 1e9
	vals["comm."+label+".recv_work_max"] = float64(a.MaxRecvWork)
	var ns float64
	var frames int64
	for _, m := range res.PerPE {
		ns += m.LatSumNs
		frames += m.LatSamples
	}
	if frames > 0 {
		vals["transport."+label+".send_ns_per_frame"] = ns / float64(frames)
	} else {
		vals["transport."+label+".send_ns_per_frame"] = 0
	}
	for _, ph := range phases {
		vals["core."+label+"."+ph[0]+"_s"] = res.Phases[ph[1]].Seconds()
	}
}

const replayCh = 0 // queue channel of the replayed shipments

// layerInput is what the layer pass precomputes once per run, untimed: the
// p=2 uniform partition, DITRIC's shipment set on it, and the stream pass's
// batches already scattered per rank.
type layerInput struct {
	g     *graph.Graph
	edges []graph.Edge
	pt    *part.Partition
	g2    *part.Grid2D

	// DITRIC's shipments: one (v, A(v)) record per remote destination PE of
	// each local row v with |A(v)| ≥ 2, under the local-rows orientation.
	replayDst [pes][]int
	replayRec [pes][][]uint64

	initBatches   [][pes][]graph.Edge // initial half, per batch, per rank
	insertBatches [][pes][]graph.Edge // inserts, per batch, per rank
	initLocal     [pes]int            // BuildLocalPar's LocalEdges on the initial half
}

func newLayerInput(g *graph.Graph, order []graph.Edge) (*layerInput, error) {
	li := &layerInput{g: g, edges: g.Edges(), pt: part.Uniform(uint64(g.NumVertices()), pes)}
	g2, err := part.NewGrid2D(uint64(g.NumVertices()), pes)
	if err != nil {
		return nil, err
	}
	li.g2 = g2
	per := graph.ScatterEdgesPar(li.pt, li.edges, 1)
	for r := 0; r < pes; r++ {
		lg := graph.BuildLocalPar(li.pt, r, per[r], 1)
		setGhostDegrees(lg, g)
		ori := graph.OrientLocalOnlyPar(lg, 1)
		for row := int32(0); row < int32(lg.NLocal()); row++ {
			av := ori.Out(row)
			if len(av) < 2 {
				continue
			}
			last := -1
			for _, u := range av {
				if lg.IsLocal(u) {
					continue
				}
				if j := li.pt.Rank(u); j != last {
					li.replayDst[r] = append(li.replayDst[r], j)
					li.replayRec[r] = append(li.replayRec[r], append([]uint64{lg.GID(row)}, av...))
					last = j
				}
			}
		}
	}
	half := len(order) / 2
	scatterAll := func(edges []graph.Edge) (out [][pes][]graph.Edge) {
		next := batches(edges, streamBatch)
		for b := next(); b != nil; b = next() {
			var s [pes][]graph.Edge
			copy(s[:], graph.ScatterEdgesPar(li.pt, b, 1))
			out = append(out, s)
		}
		return out
	}
	li.initBatches = scatterAll(order[:half])
	li.insertBatches = scatterAll(order[half:])
	initPer := graph.ScatterEdgesPar(li.pt, order[:half], 1)
	for r := 0; r < pes; r++ {
		li.initLocal[r] = graph.BuildLocalPar(li.pt, r, initPer[r], 1).LocalEdges()
	}
	return li, nil
}

// setGhostDegrees fills in ghost degrees from the whole graph: what the
// ghost-degree exchange delivers, without the exchange.
func setGhostDegrees(lg *graph.LocalGraph, g *graph.Graph) {
	for _, v := range lg.Ghosts() {
		row, _ := lg.GhostRow(v)
		lg.SetGhostDegree(row, g.Degree(v))
	}
}

// checks are the program's own numbers the layer pass must reproduce.
type checks struct {
	ref           uint64 // the run's reference triangle count
	ditricPayload int64  // DITRIC p=2: local+global payload words of Result.PhaseComm
	cetricLocal   uint64 // CETRIC p=2: TypeCounts[0]+TypeCounts[1]
}

func checksFrom(ref uint64, ditric, cetric *tricount.Result) checks {
	return checks{
		ref:           ref,
		ditricPayload: ditric.PhaseComm[core.PhaseLocal].TotalPayload + ditric.PhaseComm[core.PhaseGlobal].TotalPayload,
		cetricLocal:   cetric.TypeCounts[0] + cetric.TypeCounts[1],
	}
}

// layerPass times each layer's public functions, one span per call, and
// verifies that the work it replays is the work the program does. Per-rank
// work runs one rank after the other; its times are summed over both ranks.
func (li *layerInput) layerPass(tr *tracer, want checks) (map[string]float64, error) {
	v := make(map[string]float64)
	add := func(name string, d time.Duration) { v[name] += d.Seconds() }

	var per [][]graph.Edge
	add("graph.scatter_s", tr.do("graph.ScatterEdgesPar", func() { per = graph.ScatterEdgesPar(li.pt, li.edges, 1) }))
	var lgs [pes]*graph.LocalGraph
	var oris [pes]*graph.LocalOriented
	var tri, words uint64
	hubs := 0
	for r := 0; r < pes; r++ {
		add("graph.build_s", tr.do("graph.BuildLocalPar", func() { lgs[r] = graph.BuildLocalPar(li.pt, r, per[r], 1) }))
		add("graph.orient_s", tr.do("graph.orient", func() {
			tr.do("graph.LocalGraph.SetGhostDegree", func() { setGhostDegrees(lgs[r], li.g) })
			tr.do("graph.OrientLocalPar", func() { oris[r] = graph.OrientLocalPar(lgs[r], 1) })
			tr.do("graph.LocalOriented.BuildHubsPar", func() { oris[r].BuildHubsPar(graph.DefaultHubMinDegree, 1) })
		}))
		add("graph.kernel_s", tr.do("graph.LocalOriented.CountRowsWith", func() {
			t, w := kernelPass(oris[r], lgs[r].Rows())
			tri += t
			words += w
		}))
		hubs += oris[r].NumHubs()
		add("graph.contract_s", tr.do("graph.LocalOriented.ContractPar", func() { oris[r].ContractPar(1) }))
	}
	if tri != want.cetricLocal {
		return nil, fmt.Errorf("kernel pass found %d triangles, CETRIC's local phase %d", tri, want.cetricLocal)
	}
	v["graph.kernel_words"] = float64(words)
	v["graph.kernel_words_per_s"] = 0
	if v["graph.kernel_s"] > 0 {
		v["graph.kernel_words_per_s"] = float64(words) / v["graph.kernel_s"]
	}
	v["graph.hub_rows"] = float64(hubs)

	var seqTri uint64
	add("graph.seq_kernel_s", tr.do("graph.seqkernel", func() { seqTri = seqKernel(tr, li.g) }))
	if seqTri != want.ref {
		return nil, fmt.Errorf("sequential kernel pass found %d triangles, reference %d", seqTri, want.ref)
	}

	var blocks [pes]*graph.Block
	add("graph.block_s", tr.do("graph.block", func() {
		var per2 [][]graph.Edge
		tr.do("graph.ScatterEdges2D", func() { per2 = graph.ScatterEdges2D(li.g2, li.edges, 1) })
		for r := 0; r < pes; r++ {
			tr.do("graph.BuildBlock2D", func() { blocks[r] = graph.BuildBlock2D(li.g2, r, per2[r], 1) })
			tr.do("graph.Block.Transpose", func() { blocks[r].Transpose(1) })
		}
	}))

	if err := li.streamLayer(tr, v); err != nil {
		return nil, err
	}

	var m []comm.Metrics
	var err error
	add("comm.replay_s", tr.do("comm.Queue.replay", func() { m, err = li.replay() }))
	if err != nil {
		return nil, err
	}
	agg := comm.AggregateOf(m)
	if agg.TotalPayload != want.ditricPayload {
		return nil, fmt.Errorf("replay shipped %d payload words, DITRIC %d", agg.TotalPayload, want.ditricPayload)
	}
	v["comm.replay_payload_words"] = float64(agg.TotalPayload)
	v["comm.replay_frames"] = float64(agg.TotalFrames)
	v["comm.replay_wire_bytes"] = float64(agg.TotalEncodedBytes)

	var wires [pes][]uint64
	for r := range wires {
		wires[r] = blocks[r].AppendWire(nil)
	}
	add("comm.bcast_s", tr.do("comm.Group.Bcast", func() { err = bcast(wires) }))
	if err != nil {
		return nil, err
	}

	const spawns = 21
	var spawn []float64
	for i := 0; i < spawns; i++ {
		d := tr.do("dist.Run", func() { _, err = dist.Run(dist.Config{P: pes}, func(*dist.PE) error { return nil }) })
		if err != nil {
			return nil, err
		}
		spawn = append(spawn, d.Seconds())
	}
	v["dist.spawn_s"] = median(spawn)
	return v, nil
}

// kernelPass closes every wedge of an expanded local graph through the
// adaptive kernel, as CETRIC's local phase does, and returns the triangles
// found and the words of the lists intersected.
func kernelPass(o *graph.LocalOriented, rows int) (tri, words uint64) {
	for r := int32(0); r < int32(rows); r++ {
		av := o.OutRows(r)
		for _, u := range av {
			tri += o.CountRowsWith(av, int32(u))
			words += uint64(len(av) + o.OutDegree(int32(u)))
		}
	}
	return tri, words
}

// seqKernel is tricount.CountSeq's work split into its layer calls.
func seqKernel(tr *tracer, g *graph.Graph) uint64 {
	var o *graph.OutGraph
	tr.do("graph.Orient", func() { o = graph.Orient(g) })
	tr.do("graph.OutGraph.BuildHubs", func() { o.BuildHubs(graph.DefaultHubMinDegree) })
	var count uint64
	tr.do("graph.OutGraph.CountListWith", func() {
		for v := 0; v < g.NumVertices(); v++ {
			nv := o.Out(graph.Vertex(v))
			for _, u := range nv {
				count += o.CountListWith(nv, u)
			}
		}
	})
	return count
}

// streamLayer folds and seals the initial half per rank, then stages and
// commits every insert batch, as the stream driver does around its delta
// counts.
func (li *layerInput) streamLayer(tr *tracer, v map[string]float64) error {
	var sbs [pes]*graph.StreamBuilder
	for r := 0; r < pes; r++ {
		var sealed *graph.LocalGraph
		v["graph.stream_seal_s"] += tr.do("graph.StreamBuilder.Seal", func() {
			sb := graph.NewStreamBuilder(li.pt, r)
			for _, b := range li.initBatches {
				sb.Fold(b[r], 1)
			}
			sealed = sb.Seal(1)
			sbs[r] = sb
		}).Seconds()
		if got := sealed.LocalEdges(); got != li.initLocal[r] {
			return fmt.Errorf("rank %d: StreamBuilder sealed %d local edges, BuildLocalPar %d", r, got, li.initLocal[r])
		}
	}
	for _, b := range li.insertBatches {
		for r := 0; r < pes; r++ {
			v["graph.stream_stage_s"] += tr.do("graph.StreamBuilder.Stage", func() { sbs[r].Stage(b[r], 1) }).Seconds()
		}
		for r := 0; r < pes; r++ {
			v["graph.stream_commit_s"] += tr.do("graph.StreamBuilder.Commit", func() { sbs[r].Commit(1) }).Seconds()
		}
	}
	return nil
}

// replay sends DITRIC's shipment set through the aggregating queue with the
// delta-varint codec DITRIC uses for it; handlers only count words.
func (li *layerInput) replay() ([]comm.Metrics, error) {
	var got, sent [pes]int64
	m, err := dist.Run(dist.Config{P: pes, Threshold: core.DefaultThreshold(li.g.NumEdges(), pes)}, func(pe *dist.PE) error {
		pe.Q.SetCodec(replayCh, comm.DeltaVarint)
		pe.Q.Handle(replayCh, func(_ int, words []uint64) { got[pe.Rank] += int64(len(words)) })
		pe.C.Barrier()
		for i, rec := range li.replayRec[pe.Rank] {
			pe.Q.Send(replayCh, li.replayDst[pe.Rank][i], rec)
			sent[pe.Rank] += int64(len(rec))
		}
		pe.Q.Drain()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if got[0]+got[1] != sent[0]+sent[1] {
		return nil, fmt.Errorf("replay delivered %d of %d words", got[0]+got[1], sent[0]+sent[1])
	}
	return m, nil
}

// bcast broadcasts each rank's block wire from that rank to the 1×2 grid
// row, as TK2D's blocking exchange does on two PEs.
func bcast(wires [pes][]uint64) error {
	_, err := dist.Run(dist.Config{P: pes}, func(pe *dist.PE) error {
		grp, err := pe.C.NewGroup(0, []int{0, 1})
		if err != nil {
			return err
		}
		for root := 0; root < pes; root++ {
			var words []uint64
			if root == pe.Rank {
				words = wires[root]
			}
			buf := grp.Bcast(root, words, comm.Varint)
			if root != pe.Rank {
				if len(buf) != len(wires[root]) {
					return fmt.Errorf("bcast from %d: got %d of %d words", root, len(buf), len(wires[root]))
				}
				grp.Recycle(buf)
			}
		}
		return nil
	})
	return err
}
