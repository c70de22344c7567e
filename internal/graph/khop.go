package graph

import (
	"fmt"
	"sort"

	"inferturbo/internal/tensor"
)

// Subgraph is an induced k-hop neighborhood with local node ids. Node 0..R-1
// are the R roots (in request order); the remaining nodes are discovered in
// deterministic BFS order. Edges point src -> dst in local ids, and EdgeIDs
// maps each local edge back to the global edge for feature lookup.
type Subgraph struct {
	Nodes    []int32 // local id -> global id
	Src, Dst []int32 // local edge endpoints
	EdgeIDs  []int32 // global edge ids
	NumRoots int
	Depth    []int32 // local id -> hop distance from the root set
}

// NumNodes returns the node count of the subgraph.
func (s *Subgraph) NumNodes() int { return len(s.Nodes) }

// NumEdges returns the edge count of the subgraph.
func (s *Subgraph) NumEdges() int { return len(s.Src) }

// GatherFeatures copies the root graph's node features for the subgraph's
// nodes into a local matrix.
func (s *Subgraph) GatherFeatures(g *Graph) *tensor.Matrix {
	return tensor.GatherRows(g.Features, s.Nodes)
}

// GatherEdgeFeatures copies the root graph's edge features for the
// subgraph's edges; returns nil when the graph has none.
func (s *Subgraph) GatherEdgeFeatures(g *Graph) *tensor.Matrix {
	if g.EdgeFeatures == nil {
		return nil
	}
	return tensor.GatherRows(g.EdgeFeatures, s.EdgeIDs)
}

// KHopOptions controls neighborhood extraction.
type KHopOptions struct {
	// Hops is the number of GNN layers the neighborhood must support.
	Hops int
	// Fanouts optionally limits the number of in-neighbors sampled when
	// expanding a node at each hop; Fanouts[d] applies at depth d. A value
	// < 0 (or a nil slice) means take all in-neighbors — the exact,
	// information-complete neighborhood.
	Fanouts []int
	// RNG drives sampling; required when any fanout is non-negative.
	RNG *tensor.RNG
}

// KHop extracts the (optionally sampled) k-hop in-neighborhood of the given
// roots. With nil/negative fanouts the result is information-complete: a
// k-layer GNN forward over it reproduces the full-graph values at the roots
// exactly (the AGL sufficiency property; enforced by tests).
func KHop(g *Graph, roots []int32, opt KHopOptions) *Subgraph {
	if opt.Hops < 0 {
		panic(fmt.Sprintf("graph: negative hops %d", opt.Hops))
	}
	sampled := false
	for _, f := range opt.Fanouts {
		if f >= 0 {
			sampled = true
		}
	}
	if sampled && opt.RNG == nil {
		panic("graph: sampling requires an RNG")
	}

	local := make(map[int32]int32, len(roots)*4)
	sub := &Subgraph{NumRoots: len(roots)}
	// intern returns global's local id and whether this call created it.
	intern := func(global int32, depth int32) (int32, bool) {
		if id, ok := local[global]; ok {
			return id, false
		}
		id := int32(len(sub.Nodes))
		local[global] = id
		sub.Nodes = append(sub.Nodes, global)
		sub.Depth = append(sub.Depth, depth)
		return id, true
	}

	frontier := make([]int32, 0, len(roots))
	for _, r := range roots {
		if _, fresh := intern(r, 0); !fresh {
			panic(fmt.Sprintf("graph: duplicate root %d", r))
		}
		frontier = append(frontier, r)
	}

	var next []int32
	addEdge := func(u, dst, eid, depth int32) {
		src, fresh := intern(u, depth)
		if fresh {
			next = append(next, u)
		}
		sub.Src = append(sub.Src, src)
		sub.Dst = append(sub.Dst, dst)
		sub.EdgeIDs = append(sub.EdgeIDs, eid)
	}
	for d := 0; d < opt.Hops && len(frontier) > 0; d++ {
		fanout := -1
		if d < len(opt.Fanouts) {
			fanout = opt.Fanouts[d]
		}
		next = nil
		for _, v := range frontier {
			dstLocal := local[v]
			nbrs := g.InNeighbors(v)
			eids := g.InEdgeIDs(v)
			if fanout >= 0 && fanout < len(nbrs) {
				for _, i := range opt.RNG.SampleWithoutReplacement(len(nbrs), fanout) {
					addEdge(nbrs[i], dstLocal, eids[i], int32(d+1))
				}
				continue
			}
			for i, u := range nbrs {
				addEdge(u, dstLocal, eids[i], int32(d+1))
			}
		}
		frontier = next
	}
	return sub
}

// VirtualRoot describes a node that does not exist in the graph — a
// cold-start query: its features plus the in-edges connecting it to existing
// nodes. The virtual node sends nothing (out-degree 0), so attaching it
// perturbs no existing node's inference.
type VirtualRoot struct {
	Features []float32
	// InNeighbors are global node ids; repeats create parallel edges. Every
	// neighbor must already be in the subgraph being induced, at depth 0 or
	// 1: only those carry the complete neighborhood an answer at the virtual
	// root reads.
	InNeighbors []int32
	// EdgeFeatures carries one feature row per in-edge; required (aligned
	// with InNeighbors) when the graph has edge features, nil otherwise.
	EdgeFeatures [][]float32
}

// Induced is a Subgraph rebuilt as an executable Graph in canonical form:
// local node ids ascend with global node ids and edges are inserted in
// ascending global edge-id order. That canonicalization is what makes
// subgraph inference bit-identical to the full-graph pass at the roots —
// the engine delivers each destination's messages in globally ascending
// source order with ties broken by edge insertion order, so a relabeling
// that preserves both orders reproduces every per-destination reduction
// sequence (and hence every float32 summation) exactly. Degree-scaled
// layers additionally need OutDegrees, because a node's local out-degree
// undercounts edges that left the neighborhood, and a query pass computes a
// layer only where Depth says an answer reads it; inference.RunInduced
// consumes both.
type Induced struct {
	// G is the executable subgraph, carrying gathered node/edge features
	// and the root graph's NumClasses.
	G *Graph
	// OutDegrees is the ROOT graph's out-degree for each local node (0 for
	// the virtual root).
	OutDegrees []int32
	// Roots maps the subgraph's roots, in request order, to their canonical
	// local ids.
	Roots []int32
	// Nodes maps canonical local ids back to global ids (-1 for the virtual
	// root).
	Nodes []int32
	// Virtual is the local id of the attached VirtualRoot, -1 when none.
	Virtual int32
	// Depth is each local node's KHop hop distance from the root set (0 for
	// the roots and the virtual root). Every edge u->v has
	// Depth[u] <= Depth[v]+1: KHop discovers a node while expanding a
	// destination one hop nearer the roots.
	Depth []int32
}

// Induce rebuilds the subgraph as a canonical executable Graph (see
// Induced), optionally attaching one virtual cold-start root. It validates
// its inputs and returns errors rather than panicking: the serving layer
// feeds it request-derived data.
func (s *Subgraph) Induce(g *Graph, virt *VirtualRoot) (*Induced, error) {
	n := len(s.Nodes)
	total := n
	if virt != nil {
		total++
	}
	if total == 0 {
		return nil, fmt.Errorf("graph: inducing an empty subgraph")
	}

	// Canonical node order: ascending global id. rank[old local] = new local.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return s.Nodes[order[a]] < s.Nodes[order[b]] })
	rank := make([]int32, n)
	for newID, oldID := range order {
		rank[oldID] = int32(newID)
	}

	// Canonical edge order: ascending global edge id (unique by
	// construction — KHop expands each node at most once).
	eorder := make([]int32, len(s.Src))
	for i := range eorder {
		eorder[i] = int32(i)
	}
	sort.Slice(eorder, func(a, b int) bool { return s.EdgeIDs[eorder[a]] < s.EdgeIDs[eorder[b]] })

	ind := &Induced{
		OutDegrees: make([]int32, total),
		Roots:      make([]int32, s.NumRoots),
		Nodes:      make([]int32, total),
		Virtual:    -1,
		Depth:      make([]int32, total),
	}
	for i := 0; i < s.NumRoots; i++ {
		ind.Roots[i] = rank[i] // roots occupy old local ids 0..R-1
	}

	b := NewBuilder(total)
	hasEdgeFeat := g.EdgeFeatures != nil
	for _, e := range eorder {
		src, dst := rank[s.Src[e]], rank[s.Dst[e]]
		var feat []float32
		if hasEdgeFeat {
			eid := s.EdgeIDs[e]
			if int(eid) < 0 || int(eid) >= g.NumEdges {
				return nil, fmt.Errorf("graph: subgraph edge id %d out of range [0,%d)", eid, g.NumEdges)
			}
			feat = g.EdgeFeatures.Row(int(eid))
		}
		b.AddEdge(src, dst, feat)
	}

	for oldID, global := range s.Nodes {
		if int(global) < 0 || int(global) >= g.NumNodes {
			return nil, fmt.Errorf("graph: subgraph node %d out of range [0,%d)", global, g.NumNodes)
		}
		ind.Nodes[rank[oldID]] = global
		ind.OutDegrees[rank[oldID]] = int32(g.OutDegree(global))
		ind.Depth[rank[oldID]] = s.Depth[oldID]
	}

	if virt != nil {
		// The virtual root takes the last local id: it never sends (the
		// engine orders deliveries by source), so its position cannot
		// disturb any existing node's message order.
		v := int32(n)
		ind.Virtual = v
		ind.Nodes[v] = -1
		if g.Features != nil && len(virt.Features) != g.Features.Cols {
			return nil, fmt.Errorf("graph: virtual root features dim %d, graph has %d", len(virt.Features), g.Features.Cols)
		}
		if hasEdgeFeat && len(virt.EdgeFeatures) != len(virt.InNeighbors) {
			return nil, fmt.Errorf("graph: virtual root has %d edge feature rows for %d in-edges", len(virt.EdgeFeatures), len(virt.InNeighbors))
		}
		for i, row := range virt.EdgeFeatures {
			if hasEdgeFeat && len(row) != g.EdgeFeatures.Cols {
				return nil, fmt.Errorf("graph: virtual root edge feature %d has dim %d, graph has %d", i, len(row), g.EdgeFeatures.Cols)
			}
		}
		// In-edges attach after every real edge; their relative order only
		// affects the virtual root's own inbox, deterministically.
		local := make(map[int32]int32, n)
		for newID, global := range ind.Nodes[:n] {
			local[global] = int32(newID)
		}
		for i, nbr := range virt.InNeighbors {
			src, ok := local[nbr]
			if !ok {
				return nil, fmt.Errorf("graph: virtual root in-neighbor %d not in the subgraph", nbr)
			}
			if ind.Depth[src] > 1 {
				return nil, fmt.Errorf("graph: virtual root in-neighbor %d is %d hops from the roots, want at most 1", nbr, ind.Depth[src])
			}
			var feat []float32
			if hasEdgeFeat {
				feat = virt.EdgeFeatures[i]
			}
			b.AddEdge(src, v, feat)
		}
	}

	sub := b.Build()
	sub.NumClasses = g.NumClasses
	if g.Features != nil {
		f := tensor.New(total, g.Features.Cols)
		for newID, global := range ind.Nodes {
			if global >= 0 {
				copy(f.Row(newID), g.Features.Row(int(global)))
			} else {
				copy(f.Row(newID), virt.Features)
			}
		}
		sub.Features = f
	}
	ind.G = sub
	return ind, nil
}
