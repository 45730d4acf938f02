package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text edge-list I/O ("u v" per line, '#'/'%' comments) plus a compact
// binary format, so instances can be saved once and re-used across
// experiment runs.

// WriteEdgeListText writes one "u v" line per undirected edge.
func WriteEdgeListText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	g.ForEachEdge(func(u, v Vertex) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEdgeListText parses a whitespace-separated edge list. Vertex IDs are
// used as given, so n is one more than the largest ID; an ID at or above
// maxVertices is rejected with an error naming its line. Directed inputs are
// interpreted as undirected, as the paper does.
func ReadEdgeListText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var raw []Edge
	maxID := Vertex(0)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' || s[0] == '%' {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least two fields, got %q", line, s)
		}
		u, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if u >= maxVertices || v >= maxVertices {
			return nil, fmt.Errorf("graph: line %d: vertex ID %d exceeds the supported maximum %d",
				line, max(u, v), uint64(maxVertices-1))
		}
		raw = append(raw, Edge{u, v})
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return FromEdges(0, nil), nil
	}
	return FromEdges(int(maxID)+1, raw), nil
}

const binMagic = uint64(0x5452494752503031) // "TRIGRP01"

// WriteBinary writes the graph in a fixed little-endian format:
// magic, n, m, then m canonical (u,v) pairs.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{binMagic, uint64(g.NumVertices()), uint64(g.NumEdges())}
	for _, x := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	var err error
	g.ForEachEdge(func(u, v Vertex) {
		if err == nil {
			err = binary.Write(bw, binary.LittleEndian, [2]uint64{u, v})
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Sanity bounds on input sizes, so corrupt or hostile files cannot trigger
// absurd allocations before the stream runs dry, nor wrap the vertex count
// (an ID of 2^64−1 would make n = maxID+1 overflow to 0).
const (
	maxVertices    = 1 << 34
	maxBinaryEdges = 1 << 36
)

// ReadBinary reads the format written by WriteBinary. Header fields are
// bounds-checked and the edge array grows incrementally, so truncated or
// corrupt inputs fail with an error instead of attempting giant allocations.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint64
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	if hdr[0] != binMagic {
		return nil, fmt.Errorf("graph: bad magic %x", hdr[0])
	}
	if hdr[1] > maxVertices || hdr[2] > maxBinaryEdges {
		return nil, fmt.Errorf("graph: implausible header n=%d m=%d", hdr[1], hdr[2])
	}
	// The vertex allocation must be backed by actual stream content (the m
	// edges are read and validated below, before FromEdges allocates), so a
	// crafted header cannot cause a giant allocation from a tiny input.
	if hdr[1] > 2*hdr[2]+1<<16 {
		return nil, fmt.Errorf("graph: implausible header: n=%d with only m=%d edges", hdr[1], hdr[2])
	}
	n, m := int(hdr[1]), int(hdr[2])
	edges := make([]Edge, 0, min(m, 1<<20))
	for i := 0; i < m; i++ {
		var pair [2]uint64
		if err := binary.Read(br, binary.LittleEndian, &pair); err != nil {
			return nil, fmt.Errorf("graph: truncated edge list at %d/%d: %w", i, m, err)
		}
		if pair[0] >= uint64(n) || pair[1] >= uint64(n) {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", pair[0], pair[1], n)
		}
		edges = append(edges, Edge{pair[0], pair[1]})
	}
	return FromEdges(n, edges), nil
}
