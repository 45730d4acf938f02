package graph

// Row-marker intersection engine. Every EDGE ITERATOR loop closes the wedges
// of one row v by intersecting the hoisted list A(v) with A(u) for each
// out-neighbor u (TK2D's block rows intersect a round stripe's row with
// transposed rows the same way). Instead of merging per pair, the engine
// marks A(v) once in a bitset over the row (or vertex, or round band) domain
// and closes each wedge by probing the smaller side with branch-free bit
// tests:
//
//   - u carries a hub bitmap and |A(v)| < |A(u)|: test A(v) against it;
//   - otherwise: test A(u) against the marker.
//
// A wedge therefore costs one bit test per probed element, independent of
// how the two lists interleave, and the per-row setup is O(|A(v)|): Clear
// resets only the words the marked list touched. A marker occupies one
// n/64-word bitset per owner, so every counting state (hybrid worker,
// receive-pool worker, overlap worker, TK2D worker) keeps its own.

// ProbeCounts counts the wedges a RowMarker closed per branch.
type ProbeCounts struct {
	Hub    uint64 // probed the marked list against u's hub bitmap
	Marker uint64 // probed A(u) against the marker
}

// Add folds q into p.
func (p *ProbeCounts) Add(q ProbeCounts) {
	p.Hub += q.Hub
	p.Marker += q.Marker
}

// RowMarker is the reusable scratch of the row-marker engine; the zero value
// is ready to use. It grows to the largest domain marked through it and then
// allocates nothing. A marker is not safe for concurrent use, and a caller
// that can be re-entered while a list is marked (a receive handler
// dispatched from inside a send) must use a separate marker there.
type RowMarker struct {
	bits   Bitset
	marked []Vertex
	probes ProbeCounts
}

// Mark sets the bits of list, an ascending list of values below domain.
// The previously marked list must have been cleared.
func (m *RowMarker) Mark(list []Vertex, domain int) {
	if w := BitsetWords(domain); len(m.bits) < w {
		m.bits = make(Bitset, w)
	}
	m.bits.SetList(list)
	m.marked = list
}

// Clear resets the words the marked list touched.
func (m *RowMarker) Clear() {
	for _, x := range m.marked {
		m.bits[x>>6] = 0
	}
	m.marked = nil
}

// Probes returns the wedges closed through m so far, per branch.
func (m *RowMarker) Probes() ProbeCounts { return m.probes }

// probe picks the side to test: the marked list against hub when u has a
// hub bitmap and the marked list is the smaller one, else list against the
// marker.
func (m *RowMarker) probe(list []Vertex, hub Bitset) ([]Vertex, Bitset) {
	if hub != nil && len(m.marked) < len(list) {
		m.probes.Hub++
		return m.marked, hub
	}
	m.probes.Marker++
	return list, m.bits
}

// Count returns |marked ∩ list| for an ascending list whose hub bitmap is
// hub (nil when it has none).
func (m *RowMarker) Count(list []Vertex, hub Bitset) uint64 {
	probed, bs := m.probe(list, hub)
	return bs.CountList(probed)
}

// CountSplit is Count with the common elements split at split: lo counts
// those below it, hi the rest.
func (m *RowMarker) CountSplit(list []Vertex, hub Bitset, split Vertex) (lo, hi uint64) {
	probed, bs := m.probe(list, hub)
	k, _ := searchFrom(probed, split, 0)
	return bs.CountList(probed[:k]), bs.CountList(probed[k:])
}

// ForEach calls fn for every element of marked ∩ list, ascending.
func (m *RowMarker) ForEach(list []Vertex, hub Bitset, fn func(Vertex)) {
	probed, bs := m.probe(list, hub)
	bs.ForEachCommonList(probed, fn)
}

// CountRow returns Σ_{u ∈ N⁺(v)} |N⁺(v) ∩ N⁺(u)|, the triangles whose
// ≺-smallest corner is v, leaving m cleared.
func (o *OutGraph) CountRow(m *RowMarker, v Vertex) uint64 {
	nv := o.Out(v)
	if len(nv) < 2 {
		return 0 // a single out-neighbor cannot close a triangle
	}
	m.Mark(nv, o.NumVertices())
	var c uint64
	for _, u := range nv {
		c += m.Count(o.Out(u), o.hubs.bitset(int(u)))
	}
	m.Clear()
	return c
}

// ForEachRowTriangle calls fn(u, w) for every triangle (v, u, w) whose
// ≺-smallest corner is v (v ≺ u ≺ w), leaving m cleared.
func (o *OutGraph) ForEachRowTriangle(m *RowMarker, v Vertex, fn func(u, w Vertex)) {
	nv := o.Out(v)
	if len(nv) < 2 {
		return
	}
	m.Mark(nv, o.NumVertices())
	for _, u := range nv {
		m.ForEach(o.Out(u), o.hubs.bitset(int(u)), func(w Vertex) { fn(u, w) })
	}
	m.Clear()
}

// MarkRows marks list, an ascending list of row indices, in m.
func (o *LocalOriented) MarkRows(m *RowMarker, list []Vertex) { m.Mark(list, o.L.Rows()) }

// CountMarked returns |marked ∩ A(row)| in row space.
func (o *LocalOriented) CountMarked(m *RowMarker, row int32) uint64 {
	return m.Count(o.OutRows(row), o.hubs.bitset(int(row)))
}

// CountMarkedSplit is CountMarked split into the common rows that are local
// (below NLocal) and those that are ghosts: row space puts every local row
// before every ghost row, so the type split of CETRIC's local phase costs no
// extra probes.
func (o *LocalOriented) CountMarkedSplit(m *RowMarker, row int32) (local, ghost uint64) {
	return m.CountSplit(o.OutRows(row), o.hubs.bitset(int(row)), Vertex(o.L.NLocal()))
}

// ForEachMarked calls fn for every row of marked ∩ A(row), ascending.
func (o *LocalOriented) ForEachMarked(m *RowMarker, row int32, fn func(Vertex)) {
	m.ForEach(o.OutRows(row), o.hubs.bitset(int(row)), fn)
}

// CountRow closes the wedges of TK2D's own row rel against one counting
// round's operands: it returns Σ_{j ∈ own.Row(rel)} |a.Row(rel) ∩ bt.Row(j)|,
// where a is the round stripe of the row-band block and bt the transposed
// round stripe of the column-band block, both with round-space entries below
// a.Domain(). a.Row(rel) is marked once; each wedge probes bt's row j (or,
// when that row is the longer one, the marked list against its hub bitmap).
// m is left cleared.
func (own *Block) CountRow(m *RowMarker, rel int, a, bt *Block) uint64 {
	js := own.Row(rel)
	ai := a.Row(rel)
	if len(js) == 0 || len(ai) == 0 {
		return 0
	}
	m.Mark(ai, a.Domain())
	var c uint64
	for _, j := range js {
		if bj := bt.Row(int(j)); len(bj) > 0 {
			c += m.Count(bj, bt.hubs.bitset(int(j)))
		}
	}
	m.Clear()
	return c
}

// ForEachRowTriangle calls fn(j, v) for every triangle CountRow counts: j
// runs over own.Row(rel) ascending and, for each j, v over the round-space
// middle vertices of a.Row(rel) ∩ bt.Row(j) ascending. m is left cleared.
func (own *Block) ForEachRowTriangle(m *RowMarker, rel int, a, bt *Block, fn func(j, v Vertex)) {
	js := own.Row(rel)
	ai := a.Row(rel)
	if len(js) == 0 || len(ai) == 0 {
		return
	}
	m.Mark(ai, a.Domain())
	for _, j := range js {
		if bj := bt.Row(int(j)); len(bj) > 0 {
			m.ForEach(bj, bt.hubs.bitset(int(j)), func(v Vertex) { fn(j, v) })
		}
	}
	m.Clear()
}
