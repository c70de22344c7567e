package inferturbo

import (
	"bytes"
	"testing"
)

// TestEndToEndPublicAPI exercises the whole public surface the way the
// README quickstart does: generate → train → save/load → infer → verify
// against the reference forward.
func TestEndToEndPublicAPI(t *testing.T) {
	ds := Generate(DatasetConfig{
		Name: "e2e", Nodes: 400, AvgDegree: 8, Skew: SkewIn, Exponent: 1.8,
		FeatureDim: 10, NumClasses: 3, Homophily: 0.85,
		TrainFrac: 0.5, ValFrac: 0.2, Seed: 1,
	})
	g := ds.Graph

	m := NewSAGEModel("e2e", TaskSingleLabel, 10, 16, 3, 2, 0, NewRNG(2))
	hist, err := Train(m, g, TrainConfig{Epochs: 8, BatchSize: 64, Fanouts: []int{10, 10}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Best() < 0.5 {
		t.Fatalf("validation stayed at %v", hist.Best())
	}

	var sig bytes.Buffer
	if err := SaveModel(m, &sig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&sig)
	if err != nil {
		t.Fatal(err)
	}

	want := ReferenceForward(loaded, g)
	p, err := InferPregel(loaded, g, InferOptions{NumWorkers: 6, PartialGather: true})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Logits.AllClose(want, 2e-3) {
		t.Fatal("inference diverges from reference through the public API")
	}

	rep, err := SimulateCluster(PregelCluster(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallSeconds <= 0 || rep.CPUMinutes <= 0 {
		t.Fatal("cluster pricing degenerate")
	}

	base, err := RunBaseline(loaded, g, BaselineOptions{Workers: 4, Fanout: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Redundancy <= 1 {
		t.Fatal("baseline redundancy accounting missing")
	}
}

func TestGraphFileRoundTripPublicAPI(t *testing.T) {
	ds := PowerLaw(500, SkewOut, 5)
	path := t.TempDir() + "/g.bin"
	if err := SaveGraphFile(ds.Graph, path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != ds.Graph.NumNodes || g.NumEdges != ds.Graph.NumEdges {
		t.Fatal("graph file round trip lost data")
	}
}

func TestModelFileRoundTripPublicAPI(t *testing.T) {
	m := NewGATModel("f", TaskSingleLabel, 6, 4, 2, 3, 2, NewRNG(9))
	path := t.TempDir() + "/m.json"
	if err := SaveModelFile(m, path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Name != "f" || m2.NumLayers() != 2 {
		t.Fatal("model file round trip lost data")
	}
}

func TestBuilderPublicAPI(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1, nil)
	b.AddEdge(1, 2, nil)
	g := b.Build()
	if g.NumEdges != 2 || g.OutDegree(0) != 1 {
		t.Fatal("builder misbehaved through facade")
	}
}
