package inference

import (
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// ShadowGraph is the result of the shadow-nodes preprocessing: hub nodes
// (out-degree above the threshold) are duplicated into mirrors; each mirror
// takes an even share of the original's out-edges and a copy of *all* its
// in-edges, so every mirror computes the same state as the original and the
// communication load is spread. Results agree with the plain run to float
// tolerance, not bitwise: mirror ids sort after every original, so under
// the ascending-source delivery a receiver folds a mirror's message at a
// different position than the hub's (TestShadowNodesWithinTolerance).
type ShadowGraph struct {
	// G is the rewritten graph: nodes [0, NumOriginal) are the originals,
	// the rest are mirrors.
	G *graph.Graph
	// Origin maps every vertex to its original node id (identity for
	// originals).
	Origin []int32
	// NumOriginal is the input graph's node count.
	NumOriginal int
	// Mirrors counts the extra vertices created.
	Mirrors int
	// OrigOutDeg maps every vertex to its *original* node's out-degree.
	// Degree-scaled layers (gas.Emitter, GCN) must scale by the original
	// degree, not a mirror's share, or the rewrite would change results.
	OrigOutDeg []int32
}

// BuildShadowGraph splits the out-edges of every node whose out-degree
// exceeds threshold into ceil(outDeg/threshold) groups. Features, labels and
// edge features are duplicated onto mirrors so the rewritten graph is
// self-contained.
func BuildShadowGraph(g *graph.Graph, threshold int) *ShadowGraph {
	if threshold <= 0 {
		panic("inference: shadow threshold must be positive")
	}
	n := g.NumNodes

	// Assign mirror ids.
	type hub struct {
		node   int32
		groups int
		first  int32 // first mirror vertex id (mirror 0 is the original)
	}
	var hubs []hub
	next := int32(n)
	mirrorsOf := make(map[int32]hub)
	for v := int32(0); v < int32(n); v++ {
		d := g.OutDegree(v)
		if d > threshold {
			groups := (d + threshold - 1) / threshold
			h := hub{node: v, groups: groups, first: next}
			hubs = append(hubs, h)
			mirrorsOf[v] = h
			next += int32(groups - 1)
		}
	}
	total := int(next)

	origin := make([]int32, total)
	for v := 0; v < n; v++ {
		origin[v] = int32(v)
	}
	for _, h := range hubs {
		for i := 0; i < h.groups-1; i++ {
			origin[h.first+int32(i)] = h.node
		}
	}

	// ownerOf returns the vertex that owns the i-th out-edge of v
	// (round-robin across the original and its mirrors).
	ownerOf := func(v int32, i int) int32 {
		h, ok := mirrorsOf[v]
		if !ok {
			return v
		}
		g := i % h.groups
		if g == 0 {
			return v
		}
		return h.first + int32(g-1)
	}

	b := graph.NewBuilder(total)
	hasEdgeFeat := g.EdgeFeatures != nil
	var feat []float32
	for v := int32(0); v < int32(n); v++ {
		dsts := g.OutNeighbors(v)
		eids := g.OutEdgeIDs(v)
		for i, dst := range dsts {
			src := ownerOf(v, i)
			if hasEdgeFeat {
				feat = g.EdgeFeatures.Row(int(eids[i]))
			}
			// The destination keeps its in-edge; if the destination is a
			// hub, its mirrors each need a copy of the in-edge too.
			b.AddEdge(src, dst, feat)
			if h, ok := mirrorsOf[dst]; ok {
				for m := 0; m < h.groups-1; m++ {
					b.AddEdge(src, h.first+int32(m), feat)
				}
			}
		}
	}
	sg := b.Build()

	// Duplicate node features (and labels, for completeness) onto mirrors.
	if g.Features != nil {
		f := tensor.New(total, g.Features.Cols)
		for v := 0; v < total; v++ {
			copy(f.Row(v), g.Features.Row(int(origin[v])))
		}
		sg.Features = f
	}
	sg.NumClasses = g.NumClasses

	origOut := make([]int32, total)
	for v := 0; v < total; v++ {
		origOut[v] = int32(g.OutDegree(origin[v]))
	}
	return &ShadowGraph{G: sg, Origin: origin, NumOriginal: n, Mirrors: total - n, OrigOutDeg: origOut}
}

// IdentityShadow wraps g without any rewriting (the strategy disabled).
func IdentityShadow(g *graph.Graph) *ShadowGraph {
	origin := make([]int32, g.NumNodes)
	origOut := make([]int32, g.NumNodes)
	for v := range origin {
		origin[v] = int32(v)
		origOut[v] = int32(g.OutDegree(int32(v)))
	}
	return &ShadowGraph{G: g, Origin: origin, NumOriginal: g.NumNodes, OrigOutDeg: origOut}
}
