package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	g := randomGraph(3, 50, 300)
	var buf bytes.Buffer
	if err := WriteEdgeListText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeListText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("m = %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(Vertex(v)) > 0 && !slices.Equal(g.Neighbors(Vertex(v)), g2.Neighbors(Vertex(v))) {
			t.Fatalf("neighborhood of %d differs", v)
		}
	}
}

func TestReadEdgeListTextCommentsAndDirected(t *testing.T) {
	in := `# a comment
% another comment
0 1
1 0
2 3 extra-ignored
`
	g, err := ReadEdgeListText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges missing")
	}
}

func TestReadEdgeListTextErrors(t *testing.T) {
	if _, err := ReadEdgeListText(strings.NewReader("0\n")); err == nil {
		t.Fatal("want error for one field")
	}
	if _, err := ReadEdgeListText(strings.NewReader("a b\n")); err == nil {
		t.Fatal("want error for non-numeric field")
	}
	// IDs whose vertex count would wrap (2^64−1 + 1 = 0) or exceed any
	// allocatable slice must be rejected with the offending line named.
	for _, in := range []string{"0 18446744073709551615\n", "# c\n0 9223372036854775807\n"} {
		_, err := ReadEdgeListText(strings.NewReader(in))
		want := "line 1:"
		if strings.HasPrefix(in, "#") {
			want = "line 2:"
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%q: want error naming %q, got %v", in, want, err)
		}
	}
	g, err := ReadEdgeListText(strings.NewReader("\n"))
	if err != nil || g.NumVertices() != 0 {
		t.Fatalf("empty input should give empty graph, got %v %v", g, err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGraph(5, 40, 220)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if !slices.Equal(g.Neighbors(Vertex(v)), g2.Neighbors(Vertex(v))) {
			t.Fatalf("neighborhood of %d differs", v)
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("want error for bad magic")
	}
}
