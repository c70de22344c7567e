// Package gas implements the paper's core contribution: a GAS-like
// (Gather-Apply-Scatter) abstraction for GNN layers that unifies mini-batch
// training and full-graph inference.
//
// A layer is described by five stages. Two are data flow and built in:
//
//	scatter_nbrs — a node's state is sent along its out-edges
//	gather_nbrs  — a node receives messages via its in-edges
//
// Three are computation flow and supplied by each convolution:
//
//	apply_edge — transform the per-edge message with edge features
//	aggregate  — reduce incoming messages; must be commutative+associative
//	             (sum/mean/max/min) or declared Union and deferred
//	apply_node — combine own state with the aggregate into the new state
//
// The reduce kind is the paper's annotation: a non-Union reduce is eligible
// for the partial-gather (combiner-side) optimization, and an identity
// apply_edge makes the layer broadcast-safe (every out-edge carries the same
// message). Both backends in internal/inference consume exactly this
// interface, and internal/train drives the same interface with backprop.
package gas

import (
	"fmt"

	"inferturbo/internal/nn"
	"inferturbo/internal/tensor"
)

// ReduceKind is the aggregation annotation of a layer's gather stage.
type ReduceKind int

const (
	// ReduceSum adds messages per destination.
	ReduceSum ReduceKind = iota
	// ReduceMean averages messages per destination. Distributed partials
	// carry (sum, count) pairs so merging stays exact.
	ReduceMean
	// ReduceMax takes the elementwise max per destination.
	ReduceMax
	// ReduceMin takes the elementwise min per destination.
	ReduceMin
	// ReduceUnion performs no reduction: apply_node receives the raw
	// messages and destination indices (the GAT case). Union layers cannot
	// use partial-gather.
	ReduceUnion
)

// String returns the annotation name used in signature files.
func (k ReduceKind) String() string {
	switch k {
	case ReduceSum:
		return "sum"
	case ReduceMean:
		return "mean"
	case ReduceMax:
		return "max"
	case ReduceMin:
		return "min"
	case ReduceUnion:
		return "union"
	default:
		return fmt.Sprintf("reduce(%d)", int(k))
	}
}

// ParseReduceKind inverts String.
func ParseReduceKind(s string) (ReduceKind, error) {
	switch s {
	case "sum":
		return ReduceSum, nil
	case "mean":
		return ReduceMean, nil
	case "max":
		return ReduceMax, nil
	case "min":
		return ReduceMin, nil
	case "union":
		return ReduceUnion, nil
	}
	return 0, fmt.Errorf("gas: unknown reduce kind %q", s)
}

// Commutative reports whether the reduce obeys the commutative/associative
// laws the paper requires for sender-side (partial) aggregation.
func (k ReduceKind) Commutative() bool { return k != ReduceUnion }

// Context carries the local tensors a layer forward operates on: the current
// node states plus the edge structure in local indices. It is produced
// either from a k-hop subgraph (training) or from a worker's received
// messages (inference).
type Context struct {
	NodeState *tensor.Matrix // N x D current states (h^k)
	SrcIndex  []int32        // E source local ids
	DstIndex  []int32        // E destination local ids
	EdgeState *tensor.Matrix // E x De edge features, or nil
	NumNodes  int
}

// Validate checks index bounds; used by tests and the inference drivers.
func (c *Context) Validate() error {
	if c.NodeState != nil && c.NodeState.Rows != c.NumNodes {
		return fmt.Errorf("gas: %d state rows for %d nodes", c.NodeState.Rows, c.NumNodes)
	}
	if len(c.SrcIndex) != len(c.DstIndex) {
		return fmt.Errorf("gas: %d src vs %d dst indices", len(c.SrcIndex), len(c.DstIndex))
	}
	for i := range c.SrcIndex {
		if int(c.SrcIndex[i]) >= c.NumNodes || int(c.DstIndex[i]) >= c.NumNodes ||
			c.SrcIndex[i] < 0 || c.DstIndex[i] < 0 {
			return fmt.Errorf("gas: edge %d out of range", i)
		}
	}
	if c.EdgeState != nil && c.EdgeState.Rows != len(c.SrcIndex) {
		return fmt.Errorf("gas: %d edge-state rows for %d edges", c.EdgeState.Rows, len(c.SrcIndex))
	}
	return nil
}

// Aggregated is the output of the gather stage. For pooled reduces, Pooled
// is N x D (plus Counts for mean); for Union, message i is the row view
// Msgs[i] and folds into node Dst[i], and Self holds the N receivers' own
// emitted rows for a layer whose apply_node reads them
// (Emitter.SelfEmitted). Views are read, never written or retained.
type Aggregated struct {
	Kind   ReduceKind
	Pooled *tensor.Matrix
	Counts []int32
	Msgs   [][]float32
	Dst    []int32
	Self   *tensor.Matrix
}

// Gather performs the built-in gather/aggregate stage over edge messages.
func Gather(kind ReduceKind, messages *tensor.Matrix, dst []int32, numNodes int) *Aggregated {
	a := &Aggregated{Kind: kind}
	switch kind {
	case ReduceSum:
		a.Pooled = tensor.SegmentSum(messages, dst, numNodes)
		a.Counts = tensor.SegmentCount(dst, numNodes) // receiver in-degree (GCN normalization)
	case ReduceMean:
		a.Pooled = tensor.SegmentSum(messages, dst, numNodes)
		a.Counts = tensor.SegmentCount(dst, numNodes)
		divideByCounts(a.Pooled, a.Counts)
	case ReduceMax:
		a.Pooled = tensor.SegmentMax(messages, dst, numNodes)
	case ReduceMin:
		a.Pooled = tensor.SegmentMin(messages, dst, numNodes)
	case ReduceUnion:
		a.Msgs = rowViews(messages, nil)
		a.Dst = dst
	default:
		panic("gas: unknown reduce kind")
	}
	return a
}

// rowViews returns views of m's rows idx[0], idx[1], ..., or of every row
// in order when idx is nil.
func rowViews(m *tensor.Matrix, idx []int32) [][]float32 {
	if idx == nil {
		v := make([][]float32, m.Rows)
		for i := range v {
			v[i] = m.Row(i)
		}
		return v
	}
	v := make([][]float32, len(idx))
	for i, r := range idx {
		v[i] = m.Row(int(r))
	}
	return v
}

func divideByCounts(m *tensor.Matrix, counts []int32) {
	for i := 0; i < m.Rows; i++ {
		if counts[i] == 0 {
			continue
		}
		inv := 1 / float32(counts[i])
		row := m.Row(i)
		for j := range row {
			row[j] *= inv
		}
	}
}

// Conv is one GNN layer in the GAS abstraction. Forward/Backward are the
// training path (Forward caches intermediates); Infer is the stateless
// full-graph path shared by both inference backends.
type Conv interface {
	// Type identifies the layer in signature files ("sage", "gat").
	Type() string
	// Reduce is the aggregate annotation.
	Reduce() ReduceKind
	// BroadcastSafe reports whether every out-edge of a node carries an
	// identical message, enabling the broadcast strategy. Contract: a
	// BroadcastSafe layer's ApplyEdge must be the identity on its message
	// input — not merely edge-state-independent. The whole stack relies on
	// this: both drivers' scatter sends the raw state without calling
	// ApplyEdge for broadcast-safe layers, and InferLayer's fused
	// scatter_and_gather path skips ApplyEdge entirely. A layer that
	// transforms its message uniformly per out-edge must return false.
	BroadcastSafe() bool
	// InDim / OutDim are the node-state dimensions consumed and produced.
	InDim() int
	OutDim() int
	// ApplyEdge transforms per-edge messages (rows = gathered src states)
	// using edge features; must not mutate its inputs.
	ApplyEdge(msg, edgeState *tensor.Matrix) *tensor.Matrix
	// ApplyNode combines previous node states with the aggregate.
	ApplyNode(nodeState *tensor.Matrix, aggr *Aggregated) *tensor.Matrix
	// Infer runs scatter→apply_edge→gather→apply_node without caching.
	Infer(ctx *Context) *tensor.Matrix
	// Forward is Infer plus caching for Backward.
	Forward(ctx *Context) *tensor.Matrix
	// Backward consumes d(out) and returns d(nodeState), accumulating
	// parameter gradients.
	Backward(dOut *tensor.Matrix) *tensor.Matrix
	// Params exposes trainable parameters.
	Params() []*nn.Param
}

// scratch is the package buffer pool backing the full-graph inference path
// (InferLayer, GATConv.Infer, Model.Infer). Per-vertex driver loops in
// internal/inference use their own per-worker pools instead, so this one
// only sees the layer-granularity reference path and stays uncontended.
var scratch = tensor.NewPool()

// PooledApplier is implemented by convs whose apply_node can run with its
// intermediates (and its result) drawn from a buffer pool. The returned
// matrix belongs to the caller, who may Put it back once consumed; values
// are identical to ApplyNode.
type PooledApplier interface {
	ApplyNodePooled(nodeState *tensor.Matrix, aggr *Aggregated, p *tensor.Pool) *tensor.Matrix
}

// Emitter is implemented by layers whose wire message is not the sender's
// raw state but a row-wise function of it, computed once by the vertex that
// owns the row and sent as is: GCN's degree scaling, GAT's projection plus
// per-head source scores. The message is the same on every out-edge, so an
// emitting layer stays broadcast-safe. Every inference driver sends what
// Emit writes and nothing else.
type Emitter interface {
	// MsgDim is the width of the wire message.
	MsgDim() int
	// Emit writes into row i of dst (h.Rows x MsgDim) the message of a node
	// whose state is row i of h and whose out-degree is outDeg[i]. Rows are
	// independent: a row's bits do not depend on which rows share the call,
	// so an owner may emit its whole slab in one call or one row at a time.
	// Must not mutate h; scratch comes from p.
	Emit(dst, h *tensor.Matrix, outDeg []int32, p *tensor.Pool)
	// SelfEmitted reports whether apply_node reads the receivers' own
	// emitted rows (Aggregated.Self), so a sender keeps its messages until
	// its next apply. Such a layer's Emit never reads outDeg (callers may
	// pass nil): the kept row stands for the node, not for an out-edge.
	SelfEmitted() bool
}

// ApplyNodePooled dispatches to the conv's pooled apply_node when it
// implements PooledApplier, falling back to the allocating path.
func ApplyNodePooled(c Conv, nodeState *tensor.Matrix, aggr *Aggregated, p *tensor.Pool) *tensor.Matrix {
	if pa, ok := c.(PooledApplier); ok && p != nil {
		return pa.ApplyNodePooled(nodeState, aggr, p)
	}
	return c.ApplyNode(nodeState, aggr)
}

// PooledEdgeApplier is implemented by convs whose apply_edge can draw its
// result from a buffer pool — the per-out-edge hot path of the inference
// drivers' scatter for edge-featured models. The returned matrix belongs
// to the caller (Put it back once consumed) unless it is msg itself: an
// identity apply_edge returns its input, which the caller must not recycle.
type PooledEdgeApplier interface {
	ApplyEdgePooled(msg, edgeState *tensor.Matrix, p *tensor.Pool) *tensor.Matrix
}

// ApplyEdgePooled dispatches to the conv's pooled apply_edge when it
// implements PooledEdgeApplier, falling back to the allocating path.
func ApplyEdgePooled(c Conv, msg, edgeState *tensor.Matrix, p *tensor.Pool) *tensor.Matrix {
	if pa, ok := c.(PooledEdgeApplier); ok && p != nil {
		return pa.ApplyEdgePooled(msg, edgeState, p)
	}
	return c.ApplyEdge(msg, edgeState)
}

// InferLayer is the canonical stateless data flow every Conv.Infer uses:
// the default_scatter_and_gather of the paper's pseudocode. Broadcast-safe
// sum/mean layers (identity apply_edge — the annotation the paper keys the
// broadcast strategy on) take the fused scatter_and_gather path, skipping
// the E×D message matrix entirely; everything else gathers into a pooled
// buffer. Both paths accumulate in the same order as the naive loop, so
// outputs are bit-identical to it.
func InferLayer(c Conv, ctx *Context) *tensor.Matrix {
	kind := c.Reduce()
	var aggr *Aggregated
	var msg *tensor.Matrix
	if c.BroadcastSafe() && (kind == ReduceSum || kind == ReduceMean) {
		aggr = FusedScatterGather(kind, ctx.NodeState, ctx.SrcIndex, ctx.DstIndex, ctx.NumNodes)
	} else {
		msg = scratch.GetNoZero(len(ctx.SrcIndex), ctx.NodeState.Cols)
		tensor.GatherRowsInto(msg, ctx.NodeState, ctx.SrcIndex) // scatter_nbrs
		applied := c.ApplyEdge(msg, ctx.EdgeState)              // apply_edge
		aggr = Gather(kind, applied, ctx.DstIndex, ctx.NumNodes)
		if applied != msg {
			// apply_edge produced its own matrix; the gather buffer is done.
			scratch.Put(msg)
			msg = applied
		}
	}
	out := ApplyNodePooled(c, ctx.NodeState, aggr, scratch) // apply_node
	// A Union aggregate references the message matrix until apply_node has
	// consumed it, so buffers are recycled only now.
	if msg != nil {
		scratch.Put(msg)
	}
	if aggr.Pooled != nil {
		scratch.Put(aggr.Pooled)
	}
	return out
}

// FusedScatterGather is the paper's scatter_and_gather fusion (the sparse
// A@X product of the GraphSAGE example): it folds scatter_nbrs + aggregate
// into one pass without materializing the E×D edge-message matrix, via the
// parallel fused kernel in tensor. Legal only for identity apply_edge and
// sum/mean reduces; callers fall back to the default path otherwise. The
// returned Pooled buffer comes from the package pool — hot-loop callers
// (InferLayer, GCNConv.Infer) Put it back once apply_node has consumed it;
// other callers may simply let it go to the GC. The ablation bench in this
// package measures the saving.
func FusedScatterGather(kind ReduceKind, nodeState *tensor.Matrix, src, dst []int32, numNodes int) *Aggregated {
	if kind != ReduceSum && kind != ReduceMean {
		panic("gas: fusion requires a sum or mean reduce")
	}
	out := tensor.GatherSegmentSumInto(scratch.GetNoZero(numNodes, nodeState.Cols), nodeState, src, dst)
	a := &Aggregated{Kind: kind, Pooled: out, Counts: tensor.SegmentCount(dst, numNodes)}
	if kind == ReduceMean {
		divideByCounts(out, a.Counts)
	}
	return a
}

// Activation names supported by the convs.
const (
	ActNone  = "none"
	ActReLU  = "relu"
	ActLeaky = "leaky_relu"
)

func applyActivation(name string, m *tensor.Matrix) *tensor.Matrix {
	switch name {
	case ActNone, "":
		return m
	case ActReLU:
		return tensor.ReLU(m)
	case ActLeaky:
		return tensor.LeakyReLU(m, 0.2)
	default:
		panic(fmt.Sprintf("gas: unknown activation %q", name))
	}
}

// applyActivationInPlace is applyActivation operating on m's own buffer —
// values are identical, only the allocation disappears.
func applyActivationInPlace(name string, m *tensor.Matrix) *tensor.Matrix {
	switch name {
	case ActNone, "":
		return m
	case ActReLU:
		return tensor.ReLUInPlace(m)
	case ActLeaky:
		return tensor.LeakyReLUInPlace(m, 0.2)
	default:
		panic(fmt.Sprintf("gas: unknown activation %q", name))
	}
}

func activationBackward(name string, dOut, preAct *tensor.Matrix) *tensor.Matrix {
	switch name {
	case ActNone, "":
		return dOut
	case ActReLU:
		return tensor.ReLUBackward(dOut, preAct)
	case ActLeaky:
		return tensor.LeakyReLUBackward(dOut, preAct, 0.2)
	default:
		panic(fmt.Sprintf("gas: unknown activation %q", name))
	}
}
