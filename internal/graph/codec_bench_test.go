package graph_test

import (
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/graph"
)

var decoded *graph.Graph

// BenchmarkGraphCodec encodes and decodes a graph of the benchmark's hub-in
// shape (30k nodes, in-degree power law, ~300k edges, 64-wide features) —
// the graph file every setup loads and the graph segment every session
// epoch writes and every resume reads. Run with -benchmem; bytes/op of the
// encode sub-benchmark with a reused buffer should be 0.
func BenchmarkGraphCodec(b *testing.B) {
	g := datagen.Generate(datagen.Config{
		Name: "hub-in", Nodes: 30000, AvgDegree: 10, Skew: datagen.SkewIn, Exponent: 1.8,
		MaxDegree: 1000, FeatureDim: 64, NumClasses: 8, Seed: 1,
	}).Graph
	enc := g.AppendEncoding(nil)
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(enc))
		b.ResetTimer()
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = g.AppendEncoding(buf[:0])
		}
		b.ReportMetric(float64(len(buf)), "encoded_bytes")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := graph.Decode(enc)
			if err != nil {
				b.Fatal(err)
			}
			decoded = g
		}
	})
}
