package graph

import (
	"testing"

	"inferturbo/internal/tensor"
)

// fuzzSeedGraph builds a small graph exercising every optional field so the
// fuzzer starts from structurally valid encodings.
func fuzzSeedGraph(edgeFeatures, multiLabel bool) *Graph {
	b := NewBuilder(6)
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {0, 3}}
	for i, e := range edges {
		var feat []float32
		if edgeFeatures {
			feat = []float32{float32(i), float32(-i)}
		}
		b.AddEdge(e[0], e[1], feat)
	}
	g := b.Build()
	g.NumClasses = 3
	f := tensor.New(6, 4)
	for i := range f.Data {
		f.Data[i] = float32(i) * 0.25
	}
	g.Features = f
	if multiLabel {
		ml := tensor.New(6, 3)
		for i := range ml.Data {
			ml.Data[i] = float32(i % 2)
		}
		g.MultiLabels = ml
	} else {
		g.Labels = []int32{0, 1, 2, 0, 1, 2}
	}
	g.TrainMask = []bool{true, true, false, false, false, false}
	g.ValMask = []bool{false, false, true, false, false, false}
	g.TestMask = []bool{false, false, false, true, true, true}
	return g
}

// FuzzGraphDecode hammers the dataset loader with corrupt and adversarial
// byte streams: Decode must return an error or a graph that survives full
// traversal — never panic, never hand back a structure whose accessors can
// go out of bounds. This is the loader-hardening contract of the serving
// layer (a server loads operator-supplied files at startup).
func FuzzGraphDecode(f *testing.F) {
	for _, g := range []*Graph{
		fuzzSeedGraph(false, false),
		fuzzSeedGraph(true, false),
		fuzzSeedGraph(false, true),
		NewBuilder(0).Build(),
	} {
		f.Add(g.AppendEncoding(nil))
	}
	f.Add([]byte{})
	f.Add([]byte(ioMagic + " but no body"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound the decode cost per input
		}
		g, err := Decode(data)
		if err != nil {
			return
		}
		// A graph that decoded successfully must be fully traversable.
		if verr := g.Validate(); verr != nil {
			t.Fatalf("Decode accepted a graph Validate rejects: %v", verr)
		}
		for v := int32(0); v < int32(g.NumNodes); v++ {
			_ = g.OutNeighbors(v)
			_ = g.OutEdgeIDs(v)
			_ = g.InNeighbors(v)
			_ = g.InEdgeIDs(v)
			_ = g.OutDegree(v)
			_ = g.InDegree(v)
			if g.Features != nil {
				_ = g.Features.Row(int(v))
			}
		}
		for e := int32(0); e < int32(g.NumEdges); e++ {
			if g.EdgeFeatures != nil {
				_ = g.EdgeFeatures.Row(int(e))
			}
		}
		src, dst := g.EdgeList()
		if len(src) != g.NumEdges || len(dst) != g.NumEdges {
			t.Fatalf("EdgeList returned %d/%d for %d edges", len(src), len(dst), g.NumEdges)
		}
	})
}
