package graph

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
)

// Native fuzz targets for the parsing paths. Under plain `go test` they run
// their seed corpus; `go test -fuzz=FuzzX` explores further.

func FuzzReadEdgeListText(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n% comment\n3 4 extra\n")
	f.Add("")
	f.Add("999999999999 1\n")
	f.Add("a b\n")
	f.Add("5\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Cap vertex IDs so malicious inputs cannot allocate unboundedly.
		for _, line := range strings.Split(input, "\n") {
			fields := strings.Fields(line)
			if len(fields) >= 1 && len(fields[0]) > 6 {
				t.Skip("IDs too large for the fuzz harness")
			}
			if len(fields) >= 2 && len(fields[1]) > 6 {
				t.Skip("IDs too large for the fuzz harness")
			}
		}
		g, err := ReadEdgeListText(strings.NewReader(input))
		if err != nil {
			return // rejecting malformed input is fine; crashing is not
		}
		// Whatever parsed must round-trip through the writer.
		var buf bytes.Buffer
		if err := WriteEdgeListText(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeListText(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed m: %d vs %d", g2.NumEdges(), g.NumEdges())
		}
	})
}

func FuzzBinaryGraphFormat(f *testing.F) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Reject absurd headers cheaply to keep the harness fast.
		if len(data) > 1<<16 {
			t.Skip()
		}
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.NumVertices() > 1<<20 {
			t.Skip() // header said huge n; FromEdges already validated edges
		}
		// A successfully parsed graph must be internally consistent.
		for v := 0; v < g.NumVertices(); v++ {
			for _, u := range g.Neighbors(Vertex(v)) {
				if int(u) >= g.NumVertices() {
					t.Fatalf("neighbor %d out of range", u)
				}
			}
		}
	})
}

// FuzzIntersectKernels feeds arbitrary byte strings, turned into sorted
// deduplicated vertex slices, through every intersection kernel; all must
// agree with the CountMerge oracle, in both argument orders.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{255, 0, 255}, []byte{1})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 9}, []byte{7})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a := sortedFromBytes(rawA)
		b := sortedFromBytes(rawB)
		want := CountMerge(a, b)
		if got := CountMergeBranchless(a, b); got != want {
			t.Fatalf("branchless = %d, merge = %d (a=%v b=%v)", got, want, a, b)
		}
		if got := CountGallop(a, b); got != want {
			t.Fatalf("gallop = %d, merge = %d (a=%v b=%v)", got, want, a, b)
		}
		if got := CountIntersect(a, b); got != want {
			t.Fatalf("adaptive = %d, merge = %d (a=%v b=%v)", got, want, a, b)
		}
		if got := CountIntersect(b, a); got != want {
			t.Fatalf("adaptive reversed = %d, merge = %d (a=%v b=%v)", got, want, a, b)
		}
		var each uint64
		ForEachCommon(a, b, func(Vertex) { each++ })
		if each != want {
			t.Fatalf("ForEachCommon = %d, merge = %d", each, want)
		}
		// Bitmap kernel: index b, probe with a (domain = max value + 1).
		var domain Vertex = 1
		for _, x := range b {
			if x >= domain {
				domain = x + 1
			}
		}
		for _, x := range a {
			if x >= domain {
				domain = x + 1
			}
		}
		bs := NewBitset(int(domain))
		bs.SetList(b)
		if got := bs.CountList(a); got != want {
			t.Fatalf("bitmap = %d, merge = %d (a=%v b=%v)", got, want, a, b)
		}
		var bits uint64
		bs.ForEachCommonList(a, func(Vertex) { bits++ })
		if bits != want {
			t.Fatalf("bitmap ForEach = %d, merge = %d", bits, want)
		}
		// Bitset ∩ Bitset via AND + popcount.
		ba := NewBitset(int(domain))
		ba.SetList(a)
		if got := ba.CountAnd(bs); got != want {
			t.Fatalf("bitmap AND = %d, merge = %d (a=%v b=%v)", got, want, a, b)
		}
		var and uint64
		ba.ForEachAnd(bs, func(Vertex) { and++ })
		if and != want {
			t.Fatalf("bitmap ForEachAnd = %d, merge = %d", and, want)
		}
		// Row-marker engine: mark each side in turn and probe the other,
		// without a hub bitmap (marker branch) and with one (hub branch
		// when the marked side is the shorter one).
		var m RowMarker
		checkMarker(t, &m, a, b, bs, int(domain), want)
		checkMarker(t, &m, b, a, ba, int(domain), want)
	})
}

// checkMarker marks marked in m, probes list without and with its hub
// bitmap, and checks the count, split and enumerate variants against the
// merge oracle want, the branch each probe took, and that Clear leaves
// every marker word zero.
func checkMarker(t *testing.T, m *RowMarker, marked, list []Vertex, hub Bitset, domain int, want uint64) {
	t.Helper()
	split := Vertex(domain / 2)
	var wantLo uint64
	ForEachCommon(marked, list, func(x Vertex) {
		if x < split {
			wantLo++
		}
	})
	m.Mark(marked, domain)
	for _, h := range []Bitset{nil, hub} {
		before := m.Probes()
		if got := m.Count(list, h); got != want {
			t.Fatalf("marker Count (hub=%v) = %d, merge = %d (marked=%v list=%v)", h != nil, got, want, marked, list)
		}
		after := m.Probes()
		if hubBranch := h != nil && len(marked) < len(list); hubBranch != (after.Hub == before.Hub+1) ||
			after.Hub+after.Marker != before.Hub+before.Marker+1 {
			t.Fatalf("marker Count (hub=%v, |marked|=%d, |list|=%d) took the wrong branch: %+v -> %+v",
				h != nil, len(marked), len(list), before, after)
		}
		if lo, hi := m.CountSplit(list, h, split); lo != wantLo || lo+hi != want {
			t.Fatalf("marker CountSplit (hub=%v) = (%d,%d), want (%d,%d)", h != nil, lo, hi, wantLo, want-wantLo)
		}
		var got []Vertex
		m.ForEach(list, h, func(x Vertex) { got = append(got, x) })
		if uint64(len(got)) != want || !slices.IsSorted(got) {
			t.Fatalf("marker ForEach (hub=%v) = %v, want %d ascending elements", h != nil, got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("marker ForEach (hub=%v) repeated %d", h != nil, got[i])
			}
		}
	}
	m.Clear()
	for i, w := range m.bits {
		if w != 0 {
			t.Fatalf("marker word %d = %#x after Clear", i, w)
		}
	}
}

// sortedFromBytes maps fuzz bytes to a strictly ascending vertex slice
// (cumulative gaps, so adjacent duplicates become distinct values).
func sortedFromBytes(raw []byte) []Vertex {
	out := make([]Vertex, 0, len(raw))
	cur := Vertex(0)
	for _, b := range raw {
		cur += Vertex(b) + 1
		out = append(out, cur-1)
	}
	return out
}

func FuzzVarint(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(127))
	f.Add(uint64(128))
	f.Add(uint64(1) << 63)
	f.Fuzz(func(t *testing.T, x uint64) {
		buf := appendUvarint(nil, x)
		nc := neighborCursor{buf: buf}
		got, ok := nc.next()
		if !ok || got != x {
			t.Fatalf("varint round trip: %d -> %d (%v)", x, got, ok)
		}
		if _, ok := nc.next(); ok {
			t.Fatal("cursor should be exhausted")
		}
	})
}

// FuzzGhostDiscovery drives the sort-based ghost discovery (chunked
// collect, per-chunk sort + dedup, k-way merge) against a map-based oracle
// over arbitrary edge streams, at one and several workers. Edge endpoints
// are decoded from the fuzz payload as 16-bit pairs and edges with no
// endpoint in the local range are skipped (those panic by contract, which
// FuzzGhostDiscovery is not probing).
func FuzzGhostDiscovery(f *testing.F) {
	f.Add([]byte{}, uint16(8))
	f.Add([]byte{0, 0, 1, 0, 1, 0, 2, 0, 7, 0, 9, 0}, uint16(10))
	f.Add([]byte{3, 0, 3, 0, 5, 0, 200, 0, 5, 0, 201, 0}, uint16(16))
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16) {
		n := uint64(nRaw%253) + 3
		first, last := uint64(0), n/2+1 // PE 0 of a 2-ish split
		var edges []Edge
		for i := 0; i+3 < len(data); i += 4 {
			u := uint64(binary.LittleEndian.Uint16(data[i:])) % n
			v := uint64(binary.LittleEndian.Uint16(data[i+2:])) % n
			uLoc := u >= first && u < last
			vLoc := v >= first && v < last
			if !uLoc && !vLoc {
				continue
			}
			edges = append(edges, Edge{U: u, V: v})
		}
		oracle := make(map[Vertex]bool)
		for _, e := range edges {
			if e.U == e.V {
				continue
			}
			if e.U >= last {
				oracle[e.U] = true
			}
			if e.V >= last {
				oracle[e.V] = true
			}
		}
		want := make([]Vertex, 0, len(oracle))
		for g := range oracle {
			want = append(want, g)
		}
		slices.Sort(want)
		for _, threads := range []int{1, 3} {
			got := discoverGhosts(first, last, 0, edges, threads)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("threads=%d: ghosts %v, oracle %v", threads, got, want)
			}
		}
	})
}
