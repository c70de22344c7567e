package inference

import (
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

func benchSetup(b *testing.B, skew datagen.Skew) (*gas.Model, *datagen.Dataset) {
	b.Helper()
	ds := datagen.Generate(datagen.Config{
		Name: "bench", Nodes: 3000, AvgDegree: 8, Skew: skew, Exponent: 1.8,
		FeatureDim: 32, NumClasses: 4, Seed: 1,
	})
	m := gas.NewSAGEModel("bench", gas.TaskSingleLabel, 32, 32, 4, 2, 0, tensor.NewRNG(2))
	return m, ds
}

// Backend comparison: the trade-off the paper's Table III quantifies.
func BenchmarkBackendPregel(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewIn)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, Options{NumWorkers: 8, PartialGather: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackendMapReduce(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewIn)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMapReduce(m, ds.Graph, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// Strategy ablations on a skewed graph: each strategy toggled alone.
func BenchmarkStrategyNone(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewOut)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, Options{NumWorkers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyPartialGather(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewOut)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, Options{NumWorkers: 8, PartialGather: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyBroadcast(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewOut)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, Options{NumWorkers: 8, Broadcast: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyShadowNodes(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewOut)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, Options{NumWorkers: 8, ShadowNodes: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShadowGraphBuild(b *testing.B) {
	_, ds := benchSetup(b, datagen.SkewOut)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildShadowGraph(ds.Graph, 20)
	}
}

func BenchmarkReferenceForward(b *testing.B) {
	m, ds := benchSetup(b, datagen.SkewIn)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ReferenceForward(m, ds.Graph)
	}
}

// BenchmarkGATPregel is a hub-out-shaped pass at a fifth of the benchmark
// harness's scale: an out-degree power-law graph, a 2-layer GAT
// (64 -> 4x16 concatenated -> 4x8 averaged) and Broadcast over 8 parallel
// workers. Run it with -benchmem: B/op is the pass's allocation.
func BenchmarkGATPregel(b *testing.B) {
	ds := datagen.Generate(datagen.Config{
		Name: "gat-bench", Nodes: 2000, AvgDegree: 10, Skew: datagen.SkewOut, Exponent: 1.8,
		MaxDegree: 200, FeatureDim: 64, NumClasses: 8, Seed: 3,
	})
	m := gas.NewGATModel("gat-bench", gas.TaskSingleLabel, 64, 16, 4, 8, 2, tensor.NewRNG(4))
	opts := Options{NumWorkers: 8, Parallel: true, Broadcast: true, HubThreshold: 51}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPregel(m, ds.Graph, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionDeltaRefresh is a wide-shaped delta refresh at half the
// benchmark harness's scale: uniform degree 5, a 2-layer 256-wide GCN,
// 8 parallel workers. Each iteration rewrites four feature rows and
// refreshes through the delta pass; rows/op is how many vertex rows the
// pass computed across its supersteps.
func BenchmarkSessionDeltaRefresh(b *testing.B) {
	ds := datagen.Generate(datagen.Config{
		Name: "wide-bench", Nodes: 4000, AvgDegree: 5, Skew: datagen.SkewNone,
		FeatureDim: 256, NumClasses: 8, Seed: 5,
	})
	m := gas.NewGCNModel("wide-bench", gas.TaskSingleLabel, 256, 256, 8, 2, tensor.NewRNG(6))
	sess, err := NewSession(m, ds.Graph, Options{NumWorkers: 8, Parallel: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := sess.Refresh(); err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	var rows int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var d graph.Delta
		for j := 0; j < 4; j++ {
			row := make([]float32, 256)
			for c := range row {
				row[c] = rng.Float32()*2 - 1
			}
			d.Features = append(d.Features, graph.FeatureUpdate{Node: int32(rng.Intn(ds.Graph.NumNodes)), Features: row})
		}
		if _, err := sess.Mutate(d); err != nil {
			b.Fatal(err)
		}
		res, kind, err := sess.Refresh()
		if err != nil {
			b.Fatal(err)
		}
		if kind != RefreshDelta {
			b.Fatalf("refresh kind %v, want delta", kind)
		}
		for _, n := range res.Stats.StepActive[1:] {
			rows += n
		}
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}
