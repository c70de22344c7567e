// Quickstart: the full InferTurbo life-cycle in one file —
// generate a graph, train a GraphSAGE model mini-batch over sampled k-hop
// neighborhoods, hand it off through a signature file, and run exact
// full-graph inference on the distributed Pregel engine, verifying it
// against the single-process reference forward.
package main

import (
	"bytes"
	"fmt"
	"log"

	"inferturbo"
)

func main() {
	// 1. A synthetic attributed graph with planted communities: 2,000 nodes,
	// homophilous edges, 4 classes.
	ds := inferturbo.Generate(inferturbo.DatasetConfig{
		Name: "quickstart", Nodes: 2000, AvgDegree: 8,
		Skew: inferturbo.SkewIn, Exponent: 1.8,
		FeatureDim: 16, NumClasses: 4, Homophily: 0.85,
		TrainFrac: 0.4, ValFrac: 0.2, Seed: 1,
	})
	g := ds.Graph
	fmt.Printf("graph: %d nodes, %d edges, %d features, %d classes\n",
		g.NumNodes, g.NumEdges, g.FeatureDim(), g.NumClasses)

	// 2. Train mini-batch with neighbor sampling — the efficient mode.
	model := inferturbo.NewSAGEModel("quickstart", inferturbo.TaskSingleLabel,
		g.FeatureDim(), 32, g.NumClasses, 2, 0, inferturbo.NewRNG(2))
	hist, err := inferturbo.Train(model, g, inferturbo.TrainConfig{
		Epochs: 10, BatchSize: 64, LR: 0.01, Fanouts: []int{10, 10}, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: best val accuracy %.3f, test accuracy %.3f\n",
		hist.Best(), inferturbo.Evaluate(model, g, g.TestMask))

	// 3. Hand off through a signature file: weights + GAS annotations.
	var sig bytes.Buffer
	if err := inferturbo.SaveModel(model, &sig); err != nil {
		log.Fatal(err)
	}
	sigBytes := sig.Len()
	loaded, err := inferturbo.LoadModel(&sig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("signature file: %d bytes\n", sigBytes)

	// 4. Full-graph inference — no sampling anywhere.
	opts := inferturbo.InferOptions{NumWorkers: 16, PartialGather: true, Parallel: true}
	onPregel, err := inferturbo.InferPregel(loaded, g, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Verify against the exact reference forward.
	want := inferturbo.ReferenceForward(loaded, g)
	wantClasses, _ := loaded.Predict(want)
	fmt.Printf("pregel vs reference: max |Δlogit| = %.2g\n", onPregel.Logits.MaxAbsDiff(want))
	fmt.Printf("pregel agrees with the reference on %d/%d predictions\n",
		agreeing(onPregel.Classes, wantClasses), g.NumNodes)

	// 6. Price the run on the paper's cluster rates.
	rep, err := inferturbo.SimulateCluster(inferturbo.PregelCluster(), onPregel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated: %.2fms wall, %.5f cpu·min (%d supersteps, %d messages)\n",
		rep.WallSeconds*1000, rep.CPUMinutes, onPregel.Stats.Supersteps, onPregel.Stats.MessagesSent)
}

// agreeing counts the nodes whose predicted classes match.
func agreeing(a, b []int32) int {
	n := 0
	for v := range a {
		if a[v] == b[v] {
			n++
		}
	}
	return n
}
