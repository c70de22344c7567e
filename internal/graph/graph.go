// Package graph provides the attributed directed graph representation shared
// by the trainer, both inference backends, and the traditional baseline: CSR
// out-adjacency and CSC in-adjacency built deterministically from an edge
// list, plus node/edge features, labels and split masks.
package graph

import (
	"fmt"

	"inferturbo/internal/tensor"
)

// Graph is a directed attributed graph. Node ids are dense [0, NumNodes).
// Edge ids are dense [0, NumEdges) in the order edges were supplied to the
// builder; both adjacency structures reference edges by that id so edge
// features are stored once.
type Graph struct {
	NumNodes int
	NumEdges int

	// CSR over out-edges: for node v, edges are indices OutPtr[v]..OutPtr[v+1]
	// into OutDst (destination node) and OutEdge (edge id).
	OutPtr  []int32
	OutDst  []int32
	OutEdge []int32

	// CSC over in-edges: for node v, in-edges are InPtr[v]..InPtr[v+1] into
	// InSrc (source node) and InEdge (edge id).
	InPtr  []int32
	InSrc  []int32
	InEdge []int32

	// Features is the NumNodes x F node feature matrix.
	Features *tensor.Matrix
	// EdgeFeatures is the NumEdges x Fe edge feature matrix; nil when the
	// graph has no edge attributes.
	EdgeFeatures *tensor.Matrix

	// Labels holds one class id per node for single-label tasks; nil for
	// multi-label tasks.
	Labels []int32
	// MultiLabels is the NumNodes x NumClasses {0,1} matrix for multi-label
	// tasks (the PPI setting); nil for single-label tasks.
	MultiLabels *tensor.Matrix

	NumClasses int

	TrainMask []bool
	ValMask   []bool
	TestMask  []bool
}

// Builder accumulates edges then produces an immutable Graph.
type Builder struct {
	numNodes int
	src      []int32
	dst      []int32
	efeat    [][]float32
	edgeDim  int
}

// NewBuilder creates a builder for a graph with the given node count.
func NewBuilder(numNodes int) *Builder {
	if numNodes < 0 {
		panic("graph: negative node count")
	}
	return &Builder{numNodes: numNodes, edgeDim: -1}
}

// AddEdge appends a directed edge src -> dst with optional features. All
// edges must carry the same feature dimensionality (possibly zero).
func (b *Builder) AddEdge(src, dst int32, feat []float32) {
	if int(src) < 0 || int(src) >= b.numNodes || int(dst) < 0 || int(dst) >= b.numNodes {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.numNodes))
	}
	if b.edgeDim == -1 {
		b.edgeDim = len(feat)
	} else if len(feat) != b.edgeDim {
		panic(fmt.Sprintf("graph: edge feature dim %d != %d", len(feat), b.edgeDim))
	}
	b.src = append(b.src, src)
	b.dst = append(b.dst, dst)
	if len(feat) > 0 {
		cp := make([]float32, len(feat))
		copy(cp, feat)
		b.efeat = append(b.efeat, cp)
	}
}

// NumEdges reports edges added so far.
func (b *Builder) NumEdges() int { return len(b.src) }

// Build assembles the CSR/CSC structures. The builder may not be reused.
func (b *Builder) Build() *Graph {
	g := &Graph{
		NumNodes: b.numNodes,
		NumEdges: len(b.src),
	}
	g.OutPtr, g.OutDst, g.OutEdge = buildAdj(b.numNodes, b.src, b.dst)
	g.InPtr, g.InSrc, g.InEdge = buildAdj(b.numNodes, b.dst, b.src)
	if len(b.efeat) > 0 {
		g.EdgeFeatures = tensor.FromRows(b.efeat)
	}
	return g
}

// buildAdj produces ptr/nbr/edge arrays keyed by `key` with neighbor `val`
// via a counting sort, so edge order within a node follows insertion order —
// deterministic across runs.
func buildAdj(n int, key, val []int32) (ptr, nbr, eid []int32) {
	ptr = make([]int32, n+1)
	for _, k := range key {
		ptr[k+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	nbr = make([]int32, len(key))
	eid = make([]int32, len(key))
	cursor := make([]int32, n)
	copy(cursor, ptr[:n])
	for e := range key {
		k := key[e]
		p := cursor[k]
		nbr[p] = val[e]
		eid[p] = int32(e)
		cursor[k]++
	}
	return ptr, nbr, eid
}

// OutDegree returns the out-degree of node v.
func (g *Graph) OutDegree(v int32) int { return int(g.OutPtr[v+1] - g.OutPtr[v]) }

// InDegree returns the in-degree of node v.
func (g *Graph) InDegree(v int32) int { return int(g.InPtr[v+1] - g.InPtr[v]) }

// OutNeighbors returns the destinations of v's out-edges (aliases storage).
func (g *Graph) OutNeighbors(v int32) []int32 { return g.OutDst[g.OutPtr[v]:g.OutPtr[v+1]] }

// OutEdgeIDs returns the edge ids of v's out-edges (aliases storage).
func (g *Graph) OutEdgeIDs(v int32) []int32 { return g.OutEdge[g.OutPtr[v]:g.OutPtr[v+1]] }

// InNeighbors returns the sources of v's in-edges (aliases storage).
func (g *Graph) InNeighbors(v int32) []int32 { return g.InSrc[g.InPtr[v]:g.InPtr[v+1]] }

// InEdgeIDs returns the edge ids of v's in-edges (aliases storage).
func (g *Graph) InEdgeIDs(v int32) []int32 { return g.InEdge[g.InPtr[v]:g.InPtr[v+1]] }

// FeatureDim returns the node feature dimensionality (0 when unset).
func (g *Graph) FeatureDim() int {
	if g.Features == nil {
		return 0
	}
	return g.Features.Cols
}

// EdgeFeatureDim returns the edge feature dimensionality (0 when unset).
func (g *Graph) EdgeFeatureDim() int {
	if g.EdgeFeatures == nil {
		return 0
	}
	return g.EdgeFeatures.Cols
}

// EdgeList reconstructs the (src, dst) arrays in edge-id order, mostly for
// tests and export.
func (g *Graph) EdgeList() (src, dst []int32) {
	src = make([]int32, g.NumEdges)
	dst = make([]int32, g.NumEdges)
	for v := int32(0); v < int32(g.NumNodes); v++ {
		for i := g.OutPtr[v]; i < g.OutPtr[v+1]; i++ {
			e := g.OutEdge[i]
			src[e] = v
			dst[e] = g.OutDst[i]
		}
	}
	return src, dst
}

// Validate checks internal consistency: pointer monotonicity, symmetric
// edge counts between CSR and CSC, index bounds, ascending edge ids within
// every row, array lengths and matrix shapes. Intended for tests and
// dataset loaders — it must reject any adversarial byte-level corruption a
// loader can hand it without panicking, so every array access below is
// guarded by an explicit length or range check first. Cost is O(V+E).
func (g *Graph) Validate() error {
	if g.NumNodes < 0 || g.NumEdges < 0 {
		return fmt.Errorf("graph: negative counts (nodes=%d edges=%d)", g.NumNodes, g.NumEdges)
	}
	if len(g.OutPtr) != g.NumNodes+1 || len(g.InPtr) != g.NumNodes+1 {
		return fmt.Errorf("graph: ptr arrays sized %d/%d, want %d", len(g.OutPtr), len(g.InPtr), g.NumNodes+1)
	}
	if len(g.OutDst) != g.NumEdges || len(g.OutEdge) != g.NumEdges ||
		len(g.InSrc) != g.NumEdges || len(g.InEdge) != g.NumEdges {
		return fmt.Errorf("graph: adjacency arrays sized %d/%d/%d/%d, want %d edges",
			len(g.OutDst), len(g.OutEdge), len(g.InSrc), len(g.InEdge), g.NumEdges)
	}
	if g.OutPtr[0] != 0 || g.InPtr[0] != 0 ||
		int(g.OutPtr[g.NumNodes]) != g.NumEdges || int(g.InPtr[g.NumNodes]) != g.NumEdges {
		return fmt.Errorf("graph: ptr spans [%d,%d]/[%d,%d], want [0,%d]",
			g.OutPtr[0], g.OutPtr[g.NumNodes], g.InPtr[0], g.InPtr[g.NumNodes], g.NumEdges)
	}
	for v := 0; v < g.NumNodes; v++ {
		if g.OutPtr[v] > g.OutPtr[v+1] || g.InPtr[v] > g.InPtr[v+1] {
			return fmt.Errorf("graph: non-monotone ptr at node %d", v)
		}
	}
	for i, d := range g.OutDst {
		if int(d) < 0 || int(d) >= g.NumNodes {
			return fmt.Errorf("graph: out neighbor %d at slot %d out of range [0,%d)", d, i, g.NumNodes)
		}
	}
	for i, s := range g.InSrc {
		if int(s) < 0 || int(s) >= g.NumNodes {
			return fmt.Errorf("graph: in neighbor %d at slot %d out of range [0,%d)", s, i, g.NumNodes)
		}
	}
	seen := make([]bool, g.NumEdges)
	for _, e := range g.OutEdge {
		if int(e) < 0 || int(e) >= g.NumEdges || seen[e] {
			return fmt.Errorf("graph: bad or duplicate out edge id %d", e)
		}
		seen[e] = true
	}
	for i := range seen {
		seen[i] = false
	}
	for _, e := range g.InEdge {
		if int(e) < 0 || int(e) >= g.NumEdges || seen[e] {
			return fmt.Errorf("graph: bad or duplicate in edge id %d", e)
		}
		seen[e] = true
	}
	// CSR and CSC must describe the same edge set, each row in ascending
	// edge-id order (Builder's order, and the one Editor's splice keeps).
	srcByEdge := make([]int32, g.NumEdges)
	dstByEdge := make([]int32, g.NumEdges)
	for v := int32(0); v < int32(g.NumNodes); v++ {
		for i := g.OutPtr[v]; i < g.OutPtr[v+1]; i++ {
			if i > g.OutPtr[v] && g.OutEdge[i-1] > g.OutEdge[i] {
				return fmt.Errorf("graph: out-row of node %d not in edge-id order", v)
			}
			srcByEdge[g.OutEdge[i]] = v
			dstByEdge[g.OutEdge[i]] = g.OutDst[i]
		}
	}
	for v := int32(0); v < int32(g.NumNodes); v++ {
		for i := g.InPtr[v]; i < g.InPtr[v+1]; i++ {
			e := g.InEdge[i]
			if i > g.InPtr[v] && g.InEdge[i-1] > e {
				return fmt.Errorf("graph: in-row of node %d not in edge-id order", v)
			}
			if dstByEdge[e] != v || srcByEdge[e] != g.InSrc[i] {
				return fmt.Errorf("graph: CSR/CSC disagree on edge %d", e)
			}
		}
	}
	if err := checkMatrix("features", g.Features, g.NumNodes); err != nil {
		return err
	}
	if err := checkMatrix("edge features", g.EdgeFeatures, g.NumEdges); err != nil {
		return err
	}
	if err := checkMatrix("multi-labels", g.MultiLabels, g.NumNodes); err != nil {
		return err
	}
	if g.Labels != nil && len(g.Labels) != g.NumNodes {
		return fmt.Errorf("graph: labels len %d != nodes %d", len(g.Labels), g.NumNodes)
	}
	for name, mask := range map[string][]bool{"train": g.TrainMask, "val": g.ValMask, "test": g.TestMask} {
		if mask != nil && len(mask) != g.NumNodes {
			return fmt.Errorf("graph: %s mask len %d != nodes %d", name, len(mask), g.NumNodes)
		}
	}
	return nil
}

// checkMatrix rejects a matrix whose header disagrees with its backing data
// or with the expected row count — a decoded matrix with a lying shape
// would turn every Row call into an out-of-bounds slice.
func checkMatrix(name string, m *tensor.Matrix, rows int) error {
	if m == nil {
		return nil
	}
	if m.Rows != rows {
		return fmt.Errorf("graph: %s rows %d, want %d", name, m.Rows, rows)
	}
	if m.Rows < 0 || m.Cols < 0 || len(m.Data) != m.Rows*m.Cols {
		return fmt.Errorf("graph: %s shape %dx%d does not match %d data values", name, m.Rows, m.Cols, len(m.Data))
	}
	return nil
}

// MaskedNodes returns the node ids with mask[v] == true.
func MaskedNodes(mask []bool) []int32 {
	var out []int32
	for v, m := range mask {
		if m {
			out = append(out, int32(v))
		}
	}
	return out
}
