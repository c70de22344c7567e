package graph_test

import (
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// BenchmarkEditorMaterialize is one delta refresh's graph work at the
// benchmark's hub-in shape (30k nodes, in-degree power law, ~300k edges,
// 64-wide features): Editor.Apply of a batch with 32 feature rows, 32
// appended edges and 8 removals (the pairs the previous batch appended
// first, so base edges die every round), then the materialization and the
// gather-index splice a Session's delta pass asks for. Run with -benchmem:
// B/op is dominated by the copy-on-write feature matrix, the rest is the
// spliced adjacency and index.
func BenchmarkEditorMaterialize(b *testing.B) {
	g := datagen.Generate(datagen.Config{
		Name: "hub-in", Nodes: 30000, AvgDegree: 10, Skew: datagen.SkewIn, Exponent: 1.8,
		MaxDegree: 1000, FeatureDim: 64, NumClasses: 8, Seed: 1,
	}).Graph
	rng := tensor.NewRNG(3)
	node := func() int32 { return int32(rng.Intn(g.NumNodes)) }
	row := make([]float32, g.FeatureDim())
	batch := func(prev []graph.EdgeAdd) graph.Delta {
		var d graph.Delta
		for i := 0; i < 32; i++ {
			d.Features = append(d.Features, graph.FeatureUpdate{Node: node(), Features: row})
			d.AddEdges = append(d.AddEdges, graph.EdgeAdd{Src: node(), Dst: node()})
		}
		for _, e := range prev[:min(8, len(prev))] {
			d.RemoveEdges = append(d.RemoveEdges, graph.EdgeKey{Src: e.Src, Dst: e.Dst})
		}
		return d
	}
	batches := make([]graph.Delta, b.N)
	var prev []graph.EdgeAdd
	for i := range batches {
		batches[i] = batch(prev)
		prev = batches[i].AddEdges
	}
	ed := graph.NewEditor(g)
	ed.GatherIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for _, d := range batches {
		if _, err := ed.Apply(d); err != nil {
			b.Fatal(err)
		}
		ed.GatherIndex()
	}
	b.ReportMetric(float64(ed.Graph().NumEdges), "edges")
}
