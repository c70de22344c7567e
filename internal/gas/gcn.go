package gas

import (
	"fmt"
	"math"

	"inferturbo/internal/nn"
	"inferturbo/internal/tensor"
)

// GCNConv is a graph convolution layer with symmetric degree normalization
// in the GAS abstraction:
//
//	scatter message: h_u / √(1+outdeg(u))       (sender-side scaling)
//	aggregate:       sum (partial-gather legal)
//	apply_node:      act(W_n·(Σ msg)/√(1+indeg(v)) + W_s·h_v)
//
// This is the directed-graph form of GCN's D^-1/2 A D^-1/2 propagation with
// a separate root weight (no explicit self-loop edge), which keeps the
// distributed data flow identical to the other pooled layers.
type GCNConv struct {
	SelfLin *nn.Linear
	NbrLin  *nn.Linear

	inDim, outDim int
	activation    string

	cacheCtx    *Context
	cacheOutSc  []float32 // per-node 1/√(1+outdeg)
	cacheInSc   []float32 // per-node 1/√(1+indeg)
	cachePreAct *tensor.Matrix
}

// GCNConfig parameterizes a GCNConv.
type GCNConfig struct {
	InDim, OutDim int
	Activation    string
}

// NewGCNConv builds a GCNConv with Xavier-initialized weights.
func NewGCNConv(cfg GCNConfig, rng *tensor.RNG) *GCNConv {
	if cfg.InDim <= 0 || cfg.OutDim <= 0 {
		panic(fmt.Sprintf("gas: bad GCN dims %d->%d", cfg.InDim, cfg.OutDim))
	}
	return &GCNConv{
		SelfLin:    nn.NewLinear("gcn.self", cfg.InDim, cfg.OutDim, rng),
		NbrLin:     nn.NewLinear("gcn.nbr", cfg.InDim, cfg.OutDim, rng),
		inDim:      cfg.InDim,
		outDim:     cfg.OutDim,
		activation: cfg.Activation,
	}
}

// Type implements Conv.
func (c *GCNConv) Type() string { return "gcn" }

// Reduce implements Conv.
func (c *GCNConv) Reduce() ReduceKind { return ReduceSum }

// BroadcastSafe implements Conv: the scaled message is per-node, not
// per-edge.
func (c *GCNConv) BroadcastSafe() bool { return true }

// InDim implements Conv.
func (c *GCNConv) InDim() int { return c.inDim }

// OutDim implements Conv.
func (c *GCNConv) OutDim() int { return c.outDim }

// Activation returns the activation annotation.
func (c *GCNConv) Activation() string { return c.activation }

// MsgDim implements Emitter: scaling keeps the state's width.
func (c *GCNConv) MsgDim() int { return c.inDim }

// SelfEmitted implements Emitter: apply_node reads the raw state.
func (c *GCNConv) SelfEmitted() bool { return false }

// Emit implements Emitter: row i is h's row i scaled by
// 1/√(1+outDeg[i]). The sender owns its out-edges under the Pregel
// partitioning, so it can apply the scaling before transmission.
func (c *GCNConv) Emit(dst, h *tensor.Matrix, outDeg []int32, _ *tensor.Pool) {
	for i := 0; i < h.Rows; i++ {
		s := float32(1 / math.Sqrt(float64(1+outDeg[i])))
		out := dst.Row(i)
		for j, v := range h.Row(i) {
			out[j] = v * s
		}
	}
}

// ApplyEdge implements Conv: identity (scaling happened at the sender).
func (c *GCNConv) ApplyEdge(msg, _ *tensor.Matrix) *tensor.Matrix { return msg }

// ApplyNode implements Conv: normalize the summed messages by the receiver
// degree (aggr.Counts carries it, surviving partial-gather merges exactly)
// and combine with the root term.
func (c *GCNConv) ApplyNode(nodeState *tensor.Matrix, aggr *Aggregated) *tensor.Matrix {
	norm := aggr.Pooled.Clone()
	scaleRowsByCount(norm, aggr.Counts)
	pre := tensor.Add(c.SelfLin.Apply(nodeState), c.NbrLin.Apply(norm))
	return applyActivation(c.activation, pre)
}

// ApplyNodePooled implements PooledApplier: identical values to ApplyNode
// with the normalized aggregate and both linear outputs recycled through p.
func (c *GCNConv) ApplyNodePooled(nodeState *tensor.Matrix, aggr *Aggregated, p *tensor.Pool) *tensor.Matrix {
	norm := p.GetNoZero(aggr.Pooled.Rows, aggr.Pooled.Cols)
	copy(norm.Data, aggr.Pooled.Data)
	scaleRowsByCount(norm, aggr.Counts)
	pre := c.SelfLin.ApplyPooled(p, nodeState)
	nbr := c.NbrLin.ApplyPooled(p, norm)
	tensor.AddInPlace(pre, nbr)
	p.Put(nbr)
	p.Put(norm)
	return applyActivationInPlace(c.activation, pre)
}

func scaleRowsByCount(m *tensor.Matrix, counts []int32) {
	for i := 0; i < m.Rows; i++ {
		s := float32(1 / math.Sqrt(float64(1+counts[i])))
		row := m.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
}

// Infer implements Conv. GCN overrides the generic data flow to apply the
// sender-side scaling locally (it derives out-degrees from the context),
// then runs the fused scatter_and_gather kernel — the scaled message is
// identical on every out-edge, so no E×D materialization is needed.
func (c *GCNConv) Infer(ctx *Context) *tensor.Matrix {
	scaled := c.scaleAll(ctx)
	aggr := FusedScatterGather(ReduceSum, scaled, ctx.SrcIndex, ctx.DstIndex, ctx.NumNodes)
	scratch.Put(scaled)
	out := ApplyNodePooled(c, ctx.NodeState, aggr, scratch)
	scratch.Put(aggr.Pooled)
	return out
}

// scaleAll returns node states scaled by 1/√(1+outdeg) — Emit over every
// node, with out-degrees counted from the context's edges. The result comes
// from the package pool (every element is overwritten); callers Put it back
// once the gather has consumed it.
func (c *GCNConv) scaleAll(ctx *Context) *tensor.Matrix {
	scaled := scratch.GetNoZero(ctx.NumNodes, ctx.NodeState.Cols)
	c.Emit(scaled, ctx.NodeState, tensor.SegmentCount(ctx.SrcIndex, ctx.NumNodes), nil)
	return scaled
}

// Forward implements Conv, caching intermediates for Backward.
func (c *GCNConv) Forward(ctx *Context) *tensor.Matrix {
	c.cacheCtx = ctx
	outDeg := tensor.SegmentCount(ctx.SrcIndex, ctx.NumNodes)
	inDeg := tensor.SegmentCount(ctx.DstIndex, ctx.NumNodes)
	c.cacheOutSc = make([]float32, ctx.NumNodes)
	c.cacheInSc = make([]float32, ctx.NumNodes)
	for v := 0; v < ctx.NumNodes; v++ {
		c.cacheOutSc[v] = float32(1 / math.Sqrt(float64(1+outDeg[v])))
		c.cacheInSc[v] = float32(1 / math.Sqrt(float64(1+inDeg[v])))
	}
	scaled := c.scaleAll(ctx)
	msg := tensor.GatherRows(scaled, ctx.SrcIndex)
	scratch.Put(scaled) // pooled by scaleAll; dead once gathered
	sum := tensor.SegmentSum(msg, ctx.DstIndex, ctx.NumNodes)
	norm := sum
	for v := 0; v < ctx.NumNodes; v++ {
		row := norm.Row(v)
		for j := range row {
			row[j] *= c.cacheInSc[v]
		}
	}
	pre := tensor.Add(c.SelfLin.Forward(ctx.NodeState), c.NbrLin.Forward(norm))
	c.cachePreAct = pre
	return applyActivation(c.activation, pre)
}

// Backward implements Conv.
func (c *GCNConv) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	if c.cacheCtx == nil {
		panic("gas: GCNConv.Backward before Forward")
	}
	ctx := c.cacheCtx
	dPre := activationBackward(c.activation, dOut, c.cachePreAct)
	dNode := c.SelfLin.Backward(dPre)
	dNorm := c.NbrLin.Backward(dPre)
	// Undo the receiver normalization, then the edge sum, then the sender
	// scaling — all diagonal, so gradients are the same row scalings.
	dSum := dNorm.Clone()
	for v := 0; v < ctx.NumNodes; v++ {
		row := dSum.Row(v)
		for j := range row {
			row[j] *= c.cacheInSc[v]
		}
	}
	dMsg := tensor.SegmentSumBackward(dSum, ctx.DstIndex)
	dScaled := tensor.New(ctx.NumNodes, c.inDim)
	tensor.ScatterAddRows(dScaled, dMsg, ctx.SrcIndex)
	for v := 0; v < ctx.NumNodes; v++ {
		row := dScaled.Row(v)
		drow := dNode.Row(v)
		for j := range row {
			drow[j] += row[j] * c.cacheOutSc[v]
		}
	}
	return dNode
}

// Params implements Conv.
func (c *GCNConv) Params() []*nn.Param {
	return append(c.SelfLin.Params(), c.NbrLin.Params()...)
}

// NewGCNModel builds a hops-deep GCN model with ReLU hidden layers and a
// linear-output layer producing class logits.
func NewGCNModel(name string, task Task, inDim, hidden, numClasses, hops int, rng *tensor.RNG) *Model {
	if hops < 1 {
		panic(fmt.Sprintf("gas: model needs >=1 layer, got %d", hops))
	}
	m := &Model{Name: name, Task: task, NumClasses: numClasses}
	for i := 0; i < hops; i++ {
		in, out, act := hidden, hidden, ActReLU
		if i == 0 {
			in = inDim
		}
		if i == hops-1 {
			out, act = numClasses, ActNone
		}
		m.Layers = append(m.Layers, NewGCNConv(GCNConfig{InDim: in, OutDim: out, Activation: act}, rng))
	}
	return m
}
