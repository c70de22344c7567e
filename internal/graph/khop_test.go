package graph

import (
	"slices"
	"testing"

	"inferturbo/internal/tensor"
)

// chain builds 0 -> 1 -> 2 -> 3 (edges point toward higher ids).
func chain(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	b.AddEdge(0, 1, nil)
	b.AddEdge(1, 2, nil)
	b.AddEdge(2, 3, nil)
	return b.Build()
}

func TestKHopZeroHopsIsJustRoots(t *testing.T) {
	g := chain(t)
	sub := KHop(g, []int32{2}, KHopOptions{Hops: 0})
	if sub.NumNodes() != 1 || sub.NumEdges() != 0 {
		t.Fatalf("0-hop = %d nodes %d edges", sub.NumNodes(), sub.NumEdges())
	}
	if sub.Nodes[0] != 2 || sub.Depth[0] != 0 {
		t.Fatalf("root mapping wrong: %v", sub.Nodes)
	}
}

func TestKHopChainDepths(t *testing.T) {
	g := chain(t)
	sub := KHop(g, []int32{3}, KHopOptions{Hops: 2})
	// In-neighborhood of 3 within 2 hops: {3, 2, 1}.
	if sub.NumNodes() != 3 {
		t.Fatalf("nodes = %v", sub.Nodes)
	}
	wantDepth := map[int32]int32{3: 0, 2: 1, 1: 2}
	for i, global := range sub.Nodes {
		if sub.Depth[i] != wantDepth[global] {
			t.Fatalf("depth of %d = %d, want %d", global, sub.Depth[i], wantDepth[global])
		}
	}
	if sub.NumEdges() != 2 {
		t.Fatalf("edges = %d", sub.NumEdges())
	}
}

func TestKHopEdgesAreLocalAndValid(t *testing.T) {
	g := diamond(t)
	sub := KHop(g, []int32{3}, KHopOptions{Hops: 2})
	for i := range sub.Src {
		if int(sub.Src[i]) >= sub.NumNodes() || int(sub.Dst[i]) >= sub.NumNodes() {
			t.Fatalf("edge %d out of local range", i)
		}
		// Every local edge must exist in the global graph.
		gs, gd := sub.Nodes[sub.Src[i]], sub.Nodes[sub.Dst[i]]
		found := false
		for _, nb := range g.OutNeighbors(gs) {
			if nb == gd {
				found = true
			}
		}
		if !found {
			t.Fatalf("edge %d (%d->%d) not in graph", i, gs, gd)
		}
	}
}

func TestKHopCompleteNeighborhoodHasAllEdges(t *testing.T) {
	// In the diamond, the 2-hop in-neighborhood of node 3 must include both
	// length-2 paths (0->1->3 and 0->2->3): 4 edges total.
	g := diamond(t)
	sub := KHop(g, []int32{3}, KHopOptions{Hops: 2})
	if sub.NumNodes() != 4 {
		t.Fatalf("nodes = %v", sub.Nodes)
	}
	if sub.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", sub.NumEdges())
	}
}

func TestKHopMultipleRootsShareNodes(t *testing.T) {
	g := diamond(t)
	sub := KHop(g, []int32{1, 2}, KHopOptions{Hops: 1})
	// Both roots have in-neighbor 0; it must be interned once.
	if sub.NumRoots != 2 {
		t.Fatalf("roots = %d", sub.NumRoots)
	}
	count := map[int32]int{}
	for _, n := range sub.Nodes {
		count[n]++
	}
	if count[0] != 1 {
		t.Fatalf("node 0 interned %d times", count[0])
	}
	if sub.Nodes[0] != 1 || sub.Nodes[1] != 2 {
		t.Fatal("roots must occupy the first local ids in request order")
	}
}

func TestKHopDuplicateRootPanics(t *testing.T) {
	g := chain(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KHop(g, []int32{1, 1}, KHopOptions{Hops: 1})
}

func TestKHopSamplingBoundsFanout(t *testing.T) {
	// Star: nodes 1..10 all point at node 0.
	b := NewBuilder(11)
	for v := int32(1); v <= 10; v++ {
		b.AddEdge(v, 0, nil)
	}
	g := b.Build()
	rng := tensor.NewRNG(1)
	sub := KHop(g, []int32{0}, KHopOptions{Hops: 1, Fanouts: []int{3}, RNG: rng})
	if sub.NumEdges() != 3 {
		t.Fatalf("sampled edges = %d, want 3", sub.NumEdges())
	}
	if sub.NumNodes() != 4 {
		t.Fatalf("sampled nodes = %d, want 4", sub.NumNodes())
	}
}

func TestKHopSamplingFanoutLargerThanDegreeTakesAll(t *testing.T) {
	g := diamond(t)
	rng := tensor.NewRNG(2)
	sub := KHop(g, []int32{3}, KHopOptions{Hops: 1, Fanouts: []int{100}, RNG: rng})
	if sub.NumEdges() != 2 {
		t.Fatalf("edges = %d, want all 2", sub.NumEdges())
	}
}

func TestKHopSamplingDeterministicPerSeed(t *testing.T) {
	b := NewBuilder(50)
	rng := tensor.NewRNG(7)
	for i := 0; i < 300; i++ {
		b.AddEdge(int32(rng.Intn(50)), int32(rng.Intn(50)), nil)
	}
	g := b.Build()
	a := KHop(g, []int32{0, 1, 2}, KHopOptions{Hops: 2, Fanouts: []int{5, 5}, RNG: tensor.NewRNG(11)})
	c := KHop(g, []int32{0, 1, 2}, KHopOptions{Hops: 2, Fanouts: []int{5, 5}, RNG: tensor.NewRNG(11)})
	if a.NumNodes() != c.NumNodes() || a.NumEdges() != c.NumEdges() {
		t.Fatal("same seed must give identical subgraphs")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != c.Nodes[i] {
			t.Fatal("same seed must give identical node order")
		}
	}
}

func TestKHopSamplingRequiresRNG(t *testing.T) {
	g := chain(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KHop(g, []int32{3}, KHopOptions{Hops: 1, Fanouts: []int{2}})
}

// Induce carries KHop's depths into canonical order, puts a virtual root at
// depth 0, and refuses a virtual in-neighbor whose own neighborhood is
// incomplete.
func TestInduceDepth(t *testing.T) {
	g := chain(t)
	g.Features = tensor.FromRows([][]float32{{0}, {10}, {20}, {30}})
	sub := KHop(g, []int32{3}, KHopOptions{Hops: 2})
	ind, err := sub.Induce(g, &VirtualRoot{Features: []float32{1}, InNeighbors: []int32{2}})
	if err != nil {
		t.Fatal(err)
	}
	// Canonical order is ascending global id: 1, 2, 3, then the virtual root.
	if want := []int32{2, 1, 0, 0}; !slices.Equal(ind.Depth, want) {
		t.Fatalf("depths %v, want %v", ind.Depth, want)
	}
	src, dst := ind.G.EdgeList()
	for e := range src {
		if ind.Depth[src[e]] > ind.Depth[dst[e]]+1 {
			t.Fatalf("edge %d->%d spans depths %d->%d", src[e], dst[e], ind.Depth[src[e]], ind.Depth[dst[e]])
		}
	}
	if _, err := sub.Induce(g, &VirtualRoot{Features: []float32{1}, InNeighbors: []int32{1}}); err == nil {
		t.Fatal("virtual in-neighbor at depth 2 accepted")
	}
}

func TestKHopGatherFeatures(t *testing.T) {
	g := chain(t)
	g.Features = tensor.FromRows([][]float32{{0}, {10}, {20}, {30}})
	sub := KHop(g, []int32{3}, KHopOptions{Hops: 1})
	feats := sub.GatherFeatures(g)
	if feats.Rows != sub.NumNodes() {
		t.Fatalf("feature rows = %d", feats.Rows)
	}
	if feats.At(0, 0) != 30 {
		t.Fatalf("root feature = %v, want 30", feats.At(0, 0))
	}
}

func TestKHopGatherEdgeFeatures(t *testing.T) {
	g := diamond(t)
	sub := KHop(g, []int32{3}, KHopOptions{Hops: 1})
	ef := sub.GatherEdgeFeatures(g)
	if ef == nil || ef.Rows != sub.NumEdges() {
		t.Fatal("edge features must be gathered per subgraph edge")
	}
	// The diamond's edge features equal their global edge id.
	for i, e := range sub.EdgeIDs {
		if ef.At(i, 0) != float32(e) {
			t.Fatalf("edge feature %d = %v, want %d", i, ef.At(i, 0), e)
		}
	}
	gNoEf := chain(t)
	sub2 := KHop(gNoEf, []int32{1}, KHopOptions{Hops: 1})
	if sub2.GatherEdgeFeatures(gNoEf) != nil {
		t.Fatal("nil edge features expected")
	}
}

func TestKHopNeighborhoodGrowth(t *testing.T) {
	// On a dense-ish random graph the neighborhood size grows monotonically
	// with hops and is bounded by the full graph.
	rng := tensor.NewRNG(3)
	b := NewBuilder(200)
	for i := 0; i < 1000; i++ {
		b.AddEdge(int32(rng.Intn(200)), int32(rng.Intn(200)), nil)
	}
	g := b.Build()
	prev := 0
	for hops := 0; hops <= 3; hops++ {
		sub := KHop(g, []int32{0}, KHopOptions{Hops: hops})
		if sub.NumNodes() < prev {
			t.Fatalf("neighborhood shrank at hops=%d", hops)
		}
		if sub.NumNodes() > g.NumNodes {
			t.Fatal("neighborhood larger than graph")
		}
		prev = sub.NumNodes()
	}
}
