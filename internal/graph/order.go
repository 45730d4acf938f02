package graph

// The degree-based total order ≺ from COMPACT-FORWARD (Latapy):
//
//	u ≺ v  ⇔  d(u) < d(v), or d(u) == d(v) and u < v.
//
// Orienting every edge from its ≺-smaller to its ≺-larger endpoint makes the
// out-degree of high-degree vertices small and lets EDGE ITERATOR count every
// triangle exactly once.

// Less reports whether u ≺ v given their degrees.
func Less(du int, u Vertex, dv int, v Vertex) bool {
	if du != dv {
		return du < dv
	}
	return u < v
}

// OutGraph is a degree-oriented view of an undirected graph: Out(v) holds the
// outgoing neighborhood N⁺(v) = {u : v ≺ u}, sorted ascending by vertex ID so
// two out-neighborhoods can be intersected by a merge. BuildHubs additionally
// indexes heavy out-lists as packed bitmaps (the vertex domain is already
// dense), turning hub intersections into bit tests / word-AND + popcount.
type OutGraph struct {
	off  []int64
	out  []Vertex
	hubs hubIndex
}

// BuildHubs builds the packed hub-bitmap index: vertices with |N⁺(v)| ≥
// minDeg get a bitset over the vertex domain, memory-capped at the size of
// the out-lists themselves (largest rows first). minDeg ≤ 0 disables it.
func (o *OutGraph) BuildHubs(minDeg int) { o.BuildHubsPar(minDeg, 1) }

// BuildHubsPar is BuildHubs with the bitmap fills fanned out over threads
// workers.
func (o *OutGraph) BuildHubsPar(minDeg, threads int) {
	o.hubs = buildHubs(o.NumVertices(), o.NumVertices(), o.off, o.out, minDeg, threads)
}

// NumHubs returns the number of vertices carrying a hub bitmap.
func (o *OutGraph) NumHubs() int { return o.hubs.hubs }

// HubBitset returns the packed bitmap of a hub vertex, or nil.
func (o *OutGraph) HubBitset(v Vertex) Bitset { return o.hubs.bitset(int(v)) }

// CountListWith returns |list ∩ N⁺(u)| for an ascending vertex list,
// dispatching to u's hub bitmap when it has one and to the adaptive
// merge/gallop kernels otherwise. It needs no marker, so it serves one-off
// pairs; wedge sweeps go through the row-marker engine (marker.go).
func (o *OutGraph) CountListWith(list []Vertex, u Vertex) uint64 {
	if bu := o.hubs.bitset(int(u)); bu != nil {
		return bu.CountList(list)
	}
	return CountIntersect(list, o.Out(u))
}

// CountPair returns |N⁺(v) ∩ N⁺(u)|, dispatching between the hub-bitmap,
// galloping, and merge kernels per pair.
func (o *OutGraph) CountPair(v, u Vertex) uint64 {
	bv, bu := o.hubs.bitset(int(v)), o.hubs.bitset(int(u))
	switch {
	case bv != nil && bu != nil:
		lv, lu := o.OutDegree(v), o.OutDegree(u)
		if min(lv, lu) < o.hubs.stride {
			if lv <= lu {
				return bu.CountList(o.Out(v))
			}
			return bv.CountList(o.Out(u))
		}
		return bv.CountAnd(bu)
	case bu != nil:
		return bu.CountList(o.Out(v))
	case bv != nil:
		return bv.CountList(o.Out(u))
	default:
		return CountIntersect(o.Out(v), o.Out(u))
	}
}

// Orient builds the COMPACT-FORWARD orientation of g.
func Orient(g *Graph) *OutGraph {
	n := g.NumVertices()
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		dv := g.Degree(Vertex(v))
		cnt := int64(0)
		for _, u := range g.Neighbors(Vertex(v)) {
			if Less(dv, Vertex(v), g.Degree(u), u) {
				cnt++
			}
		}
		off[v+1] = off[v] + cnt
	}
	out := make([]Vertex, off[n])
	for v := 0; v < n; v++ {
		dv := g.Degree(Vertex(v))
		w := off[v]
		for _, u := range g.Neighbors(Vertex(v)) {
			if Less(dv, Vertex(v), g.Degree(u), u) {
				out[w] = u
				w++
			}
		}
	}
	return &OutGraph{off: off, out: out}
}

// OrientByID orients edges from lower to higher vertex ID, ignoring degrees.
// TriC-style algorithms that skip the degree orientation use this.
func OrientByID(g *Graph) *OutGraph {
	n := g.NumVertices()
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		cnt := int64(0)
		for _, u := range g.Neighbors(Vertex(v)) {
			if u > Vertex(v) {
				cnt++
			}
		}
		off[v+1] = off[v] + cnt
	}
	out := make([]Vertex, off[n])
	for v := 0; v < n; v++ {
		w := off[v]
		for _, u := range g.Neighbors(Vertex(v)) {
			if u > Vertex(v) {
				out[w] = u
				w++
			}
		}
	}
	return &OutGraph{off: off, out: out}
}

// NumVertices returns n.
func (o *OutGraph) NumVertices() int { return len(o.off) - 1 }

// Out returns N⁺(v), sorted ascending. The slice aliases internal storage.
func (o *OutGraph) Out(v Vertex) []Vertex { return o.out[o.off[v]:o.off[v+1]] }

// OutDegree returns |N⁺(v)|.
func (o *OutGraph) OutDegree(v Vertex) int { return int(o.off[v+1] - o.off[v]) }

// Wedges returns the number of ordered open wedges Σ_v C(d⁺(v), 2) on the
// oriented graph — the quantity reported in Table I of the paper.
func (o *OutGraph) Wedges() uint64 {
	var total uint64
	for v := 0; v < o.NumVertices(); v++ {
		d := uint64(o.OutDegree(Vertex(v)))
		total += d * (d - 1) / 2
	}
	return total
}
