package inference

import (
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// referenceEmbeddings computes the penultimate-layer states directly.
func referenceEmbeddings(m *gas.Model, g *graph.Graph) *tensor.Matrix {
	truncated := &gas.Model{Name: m.Name, Task: m.Task, NumClasses: m.NumClasses,
		Layers: m.Layers[:m.NumLayers()-1]}
	return ReferenceForward(truncated, g)
}

func TestEmitEmbeddingsPregel(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 200)
	m := sageModel(t)
	res, err := RunPregel(m, g, Options{NumWorkers: 5, EmitEmbeddings: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings == nil {
		t.Fatal("embeddings missing")
	}
	want := referenceEmbeddings(m, g)
	if !res.Embeddings.AllClose(want, logitTol) {
		t.Fatalf("embeddings diverge: %v", res.Embeddings.MaxAbsDiff(want))
	}
}

func TestEmitEmbeddingsOneLayerModelReturnsFeatures(t *testing.T) {
	g := testGraph(t, datagen.SkewNone, 80)
	m := gas.NewSAGEModel("one", gas.TaskSingleLabel, 8, 8, 4, 1, 0, tensor.NewRNG(3))
	res, err := RunPregel(m, g, Options{NumWorkers: 3, EmitEmbeddings: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Embeddings.Equal(g.Features) {
		t.Fatal("1-layer embeddings must be the input features")
	}
}

func TestEmbeddingsOffByDefault(t *testing.T) {
	g := testGraph(t, datagen.SkewNone, 80)
	m := sageModel(t)
	res, err := RunPregel(m, g, Options{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != nil {
		t.Fatal("embeddings must be opt-in")
	}
}

func TestEmbeddingsWithShadowNodes(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 300)
	m := sageModel(t)
	res, err := RunPregel(m, g, Options{NumWorkers: 4, ShadowNodes: true, HubThreshold: 10, EmitEmbeddings: true})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceEmbeddings(m, g)
	if res.Embeddings.Rows != g.NumNodes {
		t.Fatalf("embedding rows = %d, want %d (mirrors folded away)", res.Embeddings.Rows, g.NumNodes)
	}
	if !res.Embeddings.AllClose(want, logitTol) {
		t.Fatalf("shadowed embeddings diverge: %v", res.Embeddings.MaxAbsDiff(want))
	}
}
