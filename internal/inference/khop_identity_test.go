package inference

import (
	"fmt"
	"math"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// The serving fallback's correctness contract: a k-hop induced subgraph,
// canonicalized by Subgraph.Induce and executed by RunInduced, must
// reproduce the full-graph pass at the roots BIT FOR BIT — not just within
// tolerance. The engine's ascending-source merge delivers each
// destination's messages in globally ascending source order with ties in
// edge insertion order; Induce's relabeling preserves both orders, so every
// per-destination float32 reduction replays in the identical sequence, and
// RunInduced's depth pruning drops only rows no root reads.

// bitEqualRows fails the test when the logits row for local id differs from
// want's row for global id in any single bit.
func bitEqualRows(t *testing.T, tag string, got *tensor.Matrix, local int32, want *tensor.Matrix, global int32) {
	t.Helper()
	gr, wr := got.Row(int(local)), want.Row(int(global))
	if len(gr) != len(wr) {
		t.Fatalf("%s: node %d row dims %d vs %d", tag, global, len(gr), len(wr))
	}
	for j := range gr {
		if math.Float32bits(gr[j]) != math.Float32bits(wr[j]) {
			t.Fatalf("%s: node %d logit %d differs: %x vs %x (%v vs %v)",
				tag, global, j, math.Float32bits(gr[j]), math.Float32bits(wr[j]), gr[j], wr[j])
		}
	}
}

// prunedFlops is the cost a depth-pruned pass must charge: layer k applied
// at every vertex of depth <= L-k, plus one message per in-edge of each
// such vertex (every sender of a live vertex is live one superstep
// earlier, and no combiner runs).
func prunedFlops(m *gas.Model, ind *graph.Induced) int64 {
	numLayers := m.NumLayers()
	var total int64
	for k := 1; k <= numLayers; k++ {
		layer := m.Layers[k-1]
		for v, d := range ind.Depth {
			if int(d) <= numLayers-k {
				total += layerNodeFlops(layer) + int64(ind.G.InDegree(int32(v)))*layerMsgFlops(layer)
			}
		}
	}
	return total
}

// TestGATFlopFormula pins GAT's cost model to the digit on the hub-out
// benchmark's layer shapes (64 -> 4x16 concatenated -> 4x8 averaged): per
// node, the owner's projection 2·in·H·hd plus its source and destination
// scores 4·H·hd; per message, attention 6·H·hd over the emitted row.
func TestGATFlopFormula(t *testing.T) {
	m := gas.NewGATModel("flops", gas.TaskSingleLabel, 64, 16, 4, 8, 2, tensor.NewRNG(1))
	for k, want := range [][2]int64{{8448, 384}, {4224, 192}} {
		if n, e := layerNodeFlops(m.Layers[k]), layerMsgFlops(m.Layers[k]); n != want[0] || e != want[1] {
			t.Fatalf("layer %d: %d flops per node, %d per message; want %d, %d", k, n, e, want[0], want[1])
		}
	}
}

// checkInduced runs RunInduced over ind at 1, 2 and 3 workers, serial and
// parallel. Every depth-0 row must be bit-equal to want's row for its
// global id (virtualRow for the virtual root), every other row must be
// zero, and the pass must count exactly the rows and flops pruning leaves.
func checkInduced(t *testing.T, tag string, m *gas.Model, ind *graph.Induced, want *tensor.Matrix, virtualRow int32) {
	t.Helper()
	numLayers := m.NumLayers()
	for workers := 1; workers <= 3; workers++ {
		for _, parallel := range []bool{false, true} {
			cfg := fmt.Sprintf("%s/w=%d/par=%v", tag, workers, parallel)
			res, err := RunInduced(m, ind, Options{NumWorkers: workers, Parallel: parallel})
			if err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			for v, d := range ind.Depth {
				switch {
				case d > 0:
					for _, x := range res.Logits.Row(v) {
						if x != 0 {
							t.Fatalf("%s: pruned row %d (depth %d) not zero: %v", cfg, v, d, res.Logits.Row(v))
						}
					}
				case int32(v) == ind.Virtual:
					bitEqualRows(t, cfg, res.Logits, int32(v), want, virtualRow)
				default:
					bitEqualRows(t, cfg, res.Logits, int32(v), want, ind.Nodes[v])
				}
			}
			var flops int64
			for _, f := range res.Stats.WorkerFlops {
				flops += f
			}
			if wantFlops := prunedFlops(m, ind); flops != wantFlops {
				t.Fatalf("%s: pass charged %d flops, want %d", cfg, flops, wantFlops)
			}
			for k, got := range res.Stats.StepActive {
				var live int64
				for _, d := range ind.Depth {
					if int(d) <= numLayers-k {
						live++
					}
				}
				if got != live {
					t.Fatalf("%s: superstep %d computed %d rows, want %d", cfg, k, got, live)
				}
			}
		}
	}
}

// pickRoots draws n distinct node ids.
func pickRoots(rng *tensor.RNG, numNodes, n int) []int32 {
	roots := make([]int32, 0, n)
	seen := map[int32]bool{}
	for len(roots) < n {
		v := int32(rng.Intn(numNodes))
		if !seen[v] {
			seen[v] = true
			roots = append(roots, v)
		}
	}
	return roots
}

func TestKHopInducedBitIdenticalToFullGraph(t *testing.T) {
	gen := func(seed int64, edgeFeat bool) *graph.Graph {
		return datagen.Generate(datagen.Config{
			Name: "khop", Nodes: 240, AvgDegree: 5, Skew: datagen.SkewIn, Exponent: 1.6,
			FeatureDim: 8, NumClasses: 4, TrainFrac: 0.3, ValFrac: 0.1, Seed: seed,
			EdgeFeature: edgeFeat,
		}).Graph
	}
	g, ge := gen(11, false), gen(14, true)
	sageMax := &gas.Model{Name: "k-sage-max", Task: gas.TaskSingleLabel, NumClasses: 4, Layers: []gas.Conv{
		gas.NewSAGEConv(gas.SAGEConfig{InDim: 8, OutDim: 12, Reduce: gas.ReduceMax, Activation: gas.ActReLU}, tensor.NewRNG(24)),
		gas.NewSAGEConv(gas.SAGEConfig{InDim: 12, OutDim: 4, Reduce: gas.ReduceMax, Activation: gas.ActNone}, tensor.NewRNG(25)),
	}}
	cases := []struct {
		name string
		g    *graph.Graph
		m    *gas.Model
	}{
		// GCN is the hard case for degrees: its wire message scales by
		// sender out-degree, which the induced subgraph undercounts.
		{"gcn", g, gas.NewGCNModel("k-gcn", gas.TaskSingleLabel, 8, 12, 4, 2, tensor.NewRNG(21))},
		{"gcn-3layer", g, gas.NewGCNModel("k-gcn3", gas.TaskSingleLabel, 8, 12, 4, 3, tensor.NewRNG(26))},
		{"sage", g, gas.NewSAGEModel("k-sage", gas.TaskSingleLabel, 8, 12, 4, 2, 0, tensor.NewRNG(22))},
		{"sage-max", g, sageMax},
		{"gin", g, gas.NewGINModel("k-gin", gas.TaskSingleLabel, 8, 12, 4, 2, tensor.NewRNG(23))},
		// GAT's union reduce keeps every message: the pruned gather must
		// remap destinations, and the pruned emit must keep the rows the
		// next apply reads back.
		{"gat", g, gas.NewGATModel("k-gat", gas.TaskSingleLabel, 8, 4, 2, 4, 2, tensor.NewRNG(27))},
		// Edge features make apply_edge run per out-edge at scatter.
		{"sage-edge", ge, gas.NewSAGEModel("k-sage-e", gas.TaskSingleLabel, 8, 12, 4, 2, 4, tensor.NewRNG(28))},
	}
	rng := tensor.NewRNG(99)
	for _, c := range cases {
		full, err := RunPregel(c.m, c.g, Options{NumWorkers: 5})
		if err != nil {
			t.Fatalf("%s full pass: %v", c.name, err)
		}
		for _, nroots := range []int{1, 16} {
			roots := pickRoots(rng, c.g.NumNodes, nroots)
			ind, err := graph.KHop(c.g, roots, graph.KHopOptions{Hops: c.m.NumLayers()}).Induce(c.g, nil)
			if err != nil {
				t.Fatalf("%s induce: %v", c.name, err)
			}
			checkInduced(t, fmt.Sprintf("%s/roots=%d", c.name, nroots), c.m, ind, full.Logits, -1)
		}
	}
}

// A what-if override at any depth must give exactly the answer of a full
// pass over the graph with that feature row replaced: a depth-L leaf only
// ever sends h^0, and a depth-1 vertex both applies and sends.
func TestKHopWhatIfOverrideMatchesFullGraph(t *testing.T) {
	g := datagen.Generate(datagen.Config{
		Name: "khop-whatif", Nodes: 240, AvgDegree: 5, Skew: datagen.SkewIn, Exponent: 1.6,
		FeatureDim: 8, NumClasses: 4, TrainFrac: 0.3, ValFrac: 0.1, Seed: 15,
	}).Graph
	rng := tensor.NewRNG(61)
	for _, m := range []*gas.Model{
		gas.NewGCNModel("wi-gcn", gas.TaskSingleLabel, 8, 12, 4, 2, tensor.NewRNG(62)),
		gas.NewGATModel("wi-gat", gas.TaskSingleLabel, 8, 4, 2, 4, 2, tensor.NewRNG(63)),
	} {
		full, err := RunPregel(m, g, Options{NumWorkers: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int32{int32(m.NumLayers()), 1} {
			// The first root whose neighborhood reaches that depth.
			var ind *graph.Induced
			target := int32(-1)
			for r := int32(0); r < int32(g.NumNodes) && target < 0; r++ {
				if ind, err = graph.KHop(g, []int32{r}, graph.KHopOptions{Hops: m.NumLayers()}).Induce(g, nil); err != nil {
					t.Fatal(err)
				}
				for v, d := range ind.Depth {
					if d == depth {
						target = int32(v)
						break
					}
				}
			}
			if target < 0 {
				t.Fatalf("%s: no neighborhood reaches depth %d", m.Name, depth)
			}
			feat := make([]float32, g.FeatureDim())
			for i := range feat {
				feat[i] = 4*rng.Float32() - 2
			}
			copy(ind.G.Features.Row(int(target)), feat)

			og := *g
			og.Features = g.Features.Clone()
			copy(og.Features.Row(int(ind.Nodes[target])), feat)
			want, err := RunPregel(m, &og, Options{NumWorkers: 3})
			if err != nil {
				t.Fatal(err)
			}
			root := ind.Nodes[ind.Roots[0]]
			if math.Float32bits(want.Logits.At(int(root), 0)) == math.Float32bits(full.Logits.At(int(root), 0)) {
				t.Fatalf("%s: overriding node %d at depth %d left root %d's answer unchanged", m.Name, ind.Nodes[target], depth, root)
			}
			checkInduced(t, fmt.Sprintf("%s/override-depth=%d", m.Name, depth), m, ind, want.Logits, -1)
		}
	}
}

// Without the full graph's out-degrees, a GCN subgraph pass must diverge
// whenever a root's neighborhood lost out-edges — guarding against
// RunInduced's degree override silently becoming a no-op.
func TestKHopGCNRequiresOutDegreeOverride(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Name: "khop-neg", Nodes: 240, AvgDegree: 5, Skew: datagen.SkewOut, Exponent: 1.6,
		FeatureDim: 8, NumClasses: 4, TrainFrac: 0.3, ValFrac: 0.1, Seed: 12,
	})
	g := ds.Graph
	m := gas.NewGCNModel("k-gcn-neg", gas.TaskSingleLabel, 8, 12, 4, 2, tensor.NewRNG(31))
	full, err := RunPregel(m, g, Options{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for v := int32(0); v < 40 && !diverged; v++ {
		sub := graph.KHop(g, []int32{v}, graph.KHopOptions{Hops: m.NumLayers()})
		ind, err := sub.Induce(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunInduced(m, ind, Options{NumWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		bitEqualRows(t, "induced", res.Logits, ind.Roots[0], full.Logits, v)
		plain, err := RunPregel(m, ind.G, Options{NumWorkers: 2}) // local out-degrees
		if err != nil {
			t.Fatal(err)
		}
		got, want := plain.Logits.Row(int(ind.Roots[0])), full.Logits.Row(int(v))
		for j := range got {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("running the induced graph with its own out-degrees changed nothing across 40 ego networks; the degree override is not being exercised")
	}
}

// RunInduced owns a small option surface and refuses everything else.
func TestRunInducedRejectsOtherOptions(t *testing.T) {
	g := datagen.Generate(datagen.Config{
		Name: "khop-opts", Nodes: 60, AvgDegree: 3, FeatureDim: 4, NumClasses: 2,
		TrainFrac: 0.3, ValFrac: 0.1, Seed: 16,
	}).Graph
	m := gas.NewSAGEModel("opts-sage", gas.TaskSingleLabel, 4, 6, 2, 2, 0, tensor.NewRNG(71))
	ind, err := graph.KHop(g, []int32{5}, graph.KHopOptions{Hops: 2}).Induce(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{PartialGather: true},
		{Broadcast: true},
		{PerVertexCompute: true},
		{EmitEmbeddings: true},
		{CheckpointEvery: 1},
		{SuperstepHook: func(int) {}},
	} {
		if _, err := RunInduced(m, ind, opts); err == nil {
			t.Fatalf("options %+v not rejected", opts)
		}
	}
	if _, err := RunInduced(m, ind, Options{NumWorkers: 2, Parallel: true, Cancel: func() error { return nil }}); err != nil {
		t.Fatal(err)
	}
}

// A virtual cold-start root must predict exactly what a full pass over the
// graph-with-that-node-added predicts, for models without degree scaling
// (SAGE): the virtual node contributes no out-edges, so only its own row is
// new. (For GCN the serving convention deliberately keeps the original
// degrees — the existing graph is not perturbed by a what-if node — so the
// augmented-full-pass oracle does not apply.)
func TestVirtualRootMatchesAugmentedGraph(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Name: "khop-virt", Nodes: 160, AvgDegree: 4, Skew: datagen.SkewIn, Exponent: 1.5,
		FeatureDim: 6, NumClasses: 3, TrainFrac: 0.3, ValFrac: 0.1, Seed: 13,
	})
	g := ds.Graph
	m := gas.NewSAGEModel("virt-sage", gas.TaskSingleLabel, 6, 10, 3, 2, 0, tensor.NewRNG(41))
	rng := tensor.NewRNG(55)

	nbrs := []int32{3, 17, 42, 99}
	feats := make([]float32, 6)
	for i := range feats {
		feats[i] = rng.Float32()
	}

	// Oracle: rebuild the graph with the virtual node materialized.
	b := graph.NewBuilder(g.NumNodes + 1)
	src, dst := g.EdgeList()
	for e := range src {
		b.AddEdge(src[e], dst[e], nil)
	}
	newID := int32(g.NumNodes)
	for _, u := range nbrs {
		b.AddEdge(u, newID, nil)
	}
	aug := b.Build()
	aug.NumClasses = g.NumClasses
	f := tensor.New(g.NumNodes+1, 6)
	for v := 0; v < g.NumNodes; v++ {
		copy(f.Row(v), g.Features.Row(v))
	}
	copy(f.Row(g.NumNodes), feats)
	aug.Features = f
	want, err := RunPregel(m, aug, Options{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Serving path: k-hop around the neighbors, virtual root attached.
	sub := graph.KHop(g, nbrs, graph.KHopOptions{Hops: m.NumLayers()})
	ind, err := sub.Induce(g, &graph.VirtualRoot{Features: feats, InNeighbors: nbrs})
	if err != nil {
		t.Fatal(err)
	}
	checkInduced(t, "sage-virtual", m, ind, want.Logits, newID)
}
