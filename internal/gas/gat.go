package gas

import (
	"fmt"
	"math"

	"inferturbo/internal/nn"
	"inferturbo/internal/tensor"
)

// GATConv is the graph attention layer in the GAS abstraction. Attention
// breaks the commutative/associative rule, so — exactly as the paper's GAT
// example annotates with @Gather(partial=False) — the gather stage is a
// Union: apply_node receives every message and runs the softmax and the
// weighted sum. The projection is not deferred with it: the layer is an
// Emitter, so the vertex that owns a row projects it once and sends
// [z | a_src·z per head], identical on every out-edge (the layer remains
// broadcast-safe), and keeps its own emitted row for the a_dst·z term of
// its next apply.
type GATConv struct {
	MsgLin *nn.Linear // inDim -> Heads*HeadDim
	AttSrc *nn.Param  // Heads x HeadDim
	AttDst *nn.Param  // Heads x HeadDim

	inDim, heads, headDim int
	concatHeads           bool
	activation            string

	// Training caches.
	cacheCtx    *Context
	cacheZAll   *tensor.Matrix
	cachePre    *tensor.Matrix // E x Heads pre-LeakyReLU logits
	cacheAlpha  *tensor.Matrix // E x Heads attention weights
	cachePreAct *tensor.Matrix
}

// GATConfig parameterizes a GATConv. OutDim is Heads*HeadDim when
// ConcatHeads, else HeadDim (heads averaged — the usual output-layer form).
type GATConfig struct {
	InDim, Heads, HeadDim int
	ConcatHeads           bool
	Activation            string
}

// NewGATConv builds a GATConv with Xavier-initialized weights.
func NewGATConv(cfg GATConfig, rng *tensor.RNG) *GATConv {
	if cfg.InDim <= 0 || cfg.Heads <= 0 || cfg.HeadDim <= 0 {
		panic(fmt.Sprintf("gas: bad GAT dims %+v", cfg))
	}
	c := &GATConv{
		MsgLin:      nn.NewLinear("gat.msg", cfg.InDim, cfg.Heads*cfg.HeadDim, rng),
		AttSrc:      nn.NewParam("gat.att_src", cfg.Heads, cfg.HeadDim),
		AttDst:      nn.NewParam("gat.att_dst", cfg.Heads, cfg.HeadDim),
		inDim:       cfg.InDim,
		heads:       cfg.Heads,
		headDim:     cfg.HeadDim,
		concatHeads: cfg.ConcatHeads,
		activation:  cfg.Activation,
	}
	rng.Xavier(c.AttSrc.Value)
	rng.Xavier(c.AttDst.Value)
	return c
}

// Type implements Conv.
func (c *GATConv) Type() string { return "gat" }

// Reduce implements Conv: attention defers all computation to apply_node.
func (c *GATConv) Reduce() ReduceKind { return ReduceUnion }

// BroadcastSafe implements Conv: the message is the raw node state.
func (c *GATConv) BroadcastSafe() bool { return true }

// InDim implements Conv.
func (c *GATConv) InDim() int { return c.inDim }

// OutDim implements Conv.
func (c *GATConv) OutDim() int {
	if c.concatHeads {
		return c.heads * c.headDim
	}
	return c.headDim
}

// Heads returns the head count.
func (c *GATConv) Heads() int { return c.heads }

// HeadDim returns the per-head dimension.
func (c *GATConv) HeadDim() int { return c.headDim }

// ConcatHeads reports whether heads are concatenated (vs averaged).
func (c *GATConv) ConcatHeads() bool { return c.concatHeads }

// Activation returns the activation annotation.
func (c *GATConv) Activation() string { return c.activation }

// ApplyEdge implements Conv: identity — attention uses edge structure only.
func (c *GATConv) ApplyEdge(msg, _ *tensor.Matrix) *tensor.Matrix { return msg }

// MsgDim implements Emitter: the projected row plus one source score per
// head.
func (c *GATConv) MsgDim() int { return c.heads*c.headDim + c.heads }

// SelfEmitted implements Emitter: apply_node reads each receiver's own
// projected row for its a_dst·z term.
func (c *GATConv) SelfEmitted() bool { return true }

// Emit implements Emitter: z = MsgLin(h) in one pooled GEMM, then each row's
// per-head source scores. Out-degrees are not read.
func (c *GATConv) Emit(dst, h *tensor.Matrix, _ []int32, p *tensor.Pool) {
	z := c.MsgLin.ApplyPooled(p, h)
	c.scoreInto(dst, z)
	p.Put(z)
}

// scoreInto writes the emitted form of the projected rows z into dst: row v
// is z's row v followed by a_src[k]·z_k(v) for each head k.
func (c *GATConv) scoreInto(dst, z *tensor.Matrix) {
	zw, hd := c.heads*c.headDim, c.headDim
	for v := 0; v < z.Rows; v++ {
		row, zr := dst.Row(v), z.Row(v)
		copy(row, zr)
		for k := 0; k < c.heads; k++ {
			row[zw+k] = dot(c.AttSrc.Value.Row(k), zr[k*hd:(k+1)*hd])
		}
	}
}

// ApplyNode implements Conv: ApplyNodePooled over a private pool, so the
// result and every intermediate belong to the caller.
func (c *GATConv) ApplyNode(nodeState *tensor.Matrix, aggr *Aggregated) *tensor.Matrix {
	return c.ApplyNodePooled(nodeState, aggr, tensor.NewPool())
}

// ApplyNodePooled implements PooledApplier: attend over the emitted rows —
// the receivers' own (aggr.Self) and the messages' — with no projection at
// all; nodeState is not read. Every intermediate and the result come from p
// and nothing else is written, so one GATConv may serve many goroutines as
// long as each brings its own pool.
func (c *GATConv) ApplyNodePooled(_ *tensor.Matrix, aggr *Aggregated, p *tensor.Pool) *tensor.Matrix {
	if aggr.Kind != ReduceUnion || aggr.Self == nil {
		panic("gas: GATConv needs a union aggregate with the receivers' emitted rows")
	}
	out := c.attend(aggr.Self, aggr.Msgs, aggr.Dst, p, nil, nil)
	return applyActivationInPlace(c.activation, out)
}

// Infer implements Conv: every node's row is emitted once and messages view
// their source's row by SrcIndex; no E x D message matrix is gathered.
func (c *GATConv) Infer(ctx *Context) *tensor.Matrix {
	e := scratch.GetNoZero(ctx.NumNodes, c.MsgDim())
	c.Emit(e, ctx.NodeState, nil, scratch)
	out := c.attend(e, rowViews(e, ctx.SrcIndex), ctx.DstIndex, scratch, nil, nil)
	scratch.Put(e)
	return applyActivationInPlace(c.activation, out)
}

// Forward implements Conv, caching intermediates for Backward.
func (c *GATConv) Forward(ctx *Context) *tensor.Matrix {
	c.cacheCtx = ctx
	zAll := c.MsgLin.Forward(ctx.NodeState)
	c.cacheZAll = zAll
	e := tensor.New(ctx.NumNodes, c.MsgDim())
	c.scoreInto(e, zAll)
	c.cachePre, c.cacheAlpha = tensor.New(len(ctx.SrcIndex), c.heads), tensor.New(len(ctx.SrcIndex), c.heads)
	out := c.attend(e, rowViews(e, ctx.SrcIndex), ctx.DstIndex, tensor.NewPool(), c.cachePre, c.cacheAlpha)
	c.cachePreAct = out
	return applyActivation(c.activation, out)
}

// attend is the multi-head attention behind every GAT path, over emitted
// rows (see Emit): self holds the receiving nodes' rows (N x MsgDim), and
// message i is the row msgs[i], folding into node dst[i]. It returns the
// pre-activation output (N x OutDim) drawn from p, as is every temporary
// but the N softmax denominators. When pre and alpha (E x H) are non-nil
// they receive the logits and weights Backward needs.
//
// Per head, messages fold in ascending index order — the order a segment
// sum over an E-row message matrix folds — and each α·z term is rounded to
// float32 before the add (the explicit conversion forbids FMA fusion), so
// the output is bit-identical to materializing the weighted messages and
// segment-summing them. Averaged heads fold a zeroed head buffer into the
// output in head order, then scale.
func (c *GATConv) attend(self *tensor.Matrix, msgs [][]float32, dst []int32, p *tensor.Pool, pre, alpha *tensor.Matrix) *tensor.Matrix {
	n, hd, zw := self.Rows, c.headDim, c.heads*c.headDim
	out := p.Get(n, c.OutDim())
	scores := p.GetNoZero(1, 2*n)
	sDst, maxes := scores.Data[:n], scores.Data[n:]
	weights := p.GetNoZero(1, len(dst))
	al := weights.Data
	sums := make([]float64, n)
	var head *tensor.Matrix
	if !c.concatHeads && c.heads > 1 {
		head = p.GetNoZero(n, hd)
	}

	for k := 0; k < c.heads; k++ {
		lo, hi := k*hd, (k+1)*hd
		aDst := c.AttDst.Value.Row(k)
		for v := range sDst {
			sDst[v] = dot(aDst, self.Row(v)[lo:hi])
			maxes[v] = float32(math.Inf(-1))
			sums[v] = 0
		}

		// Segment softmax over each destination's messages.
		for i, d := range dst {
			x := msgs[i][zw+k] + sDst[d]
			if pre != nil {
				pre.Set(i, k, x)
			}
			l := tensor.LeakyReLUScalar(x, 0.2)
			al[i] = l
			if l > maxes[d] {
				maxes[d] = l
			}
		}
		for i, d := range dst {
			ex := float32(math.Exp(float64(al[i] - maxes[d])))
			al[i] = ex
			sums[d] += float64(ex)
		}
		for i, d := range dst {
			if s := sums[d]; s > 0 {
				al[i] = float32(float64(al[i]) / s)
			}
			if alpha != nil {
				alpha.Set(i, k, al[i])
			}
		}

		// Weighted sum: concat heads fill their column band of out, averaged
		// heads after the first go through the head buffer.
		acc, off := out, lo
		if !c.concatHeads {
			off = 0
			if k > 0 {
				acc = head
				head.Zero()
			}
		}
		for i, d := range dst {
			a, z := al[i], msgs[i][lo:hi]
			o := acc.Row(int(d))[off : off+hd]
			for j, zv := range z {
				o[j] += float32(a * zv)
			}
		}
		if acc == head {
			tensor.AddInPlace(out, head)
		}
	}
	if !c.concatHeads {
		out.ScaleInPlace(1 / float32(c.heads))
	}
	p.Put(scores)
	p.Put(weights)
	p.Put(head)
	return out
}

// dot is the attention-logit dot product, accumulated in ascending j.
func dot(a, z []float32) float32 {
	var s float32
	for j, av := range a {
		s += av * z[j]
	}
	return s
}

// Backward implements Conv.
func (c *GATConv) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	if c.cacheCtx == nil {
		panic("gas: GATConv.Backward before Forward")
	}
	ctx := c.cacheCtx
	n := ctx.NumNodes
	e := len(ctx.SrcIndex)
	hd := c.headDim
	dst := ctx.DstIndex

	dO := activationBackward(c.activation, dOut, c.cachePreAct)
	zAll := c.cacheZAll
	zMsg := tensor.GatherRows(zAll, ctx.SrcIndex)

	dZAll := tensor.New(n, c.heads*hd)
	dZMsg := tensor.New(e, c.heads*hd)

	for k := 0; k < c.heads; k++ {
		// Gradient flowing into this head's output rows.
		dHead := tensor.New(n, hd)
		if c.concatHeads {
			for v := 0; v < n; v++ {
				copy(dHead.Row(v), dO.Row(v)[k*hd:(k+1)*hd])
			}
		} else {
			inv := 1 / float32(c.heads)
			for v := 0; v < n; v++ {
				row := dO.Row(v)
				dh := dHead.Row(v)
				for j := 0; j < hd; j++ {
					dh[j] = row[j] * inv
				}
			}
		}

		aSrc := c.AttSrc.Value.Row(k)
		aDst := c.AttDst.Value.Row(k)
		alphaK := make([]float32, e)
		dAlpha := make([]float32, e)
		for i := 0; i < e; i++ {
			alphaK[i] = c.cacheAlpha.At(i, k)
			zh := zMsg.Row(i)[k*hd : (k+1)*hd]
			dh := dHead.Row(int(dst[i]))
			// out_head[dst] = Σ alpha*z ⇒ dAlpha = <dHead[dst], z>,
			// dZMsg += alpha * dHead[dst].
			var s float32
			dzm := dZMsg.Row(i)[k*hd : (k+1)*hd]
			for j := 0; j < hd; j++ {
				s += dh[j] * zh[j]
				dzm[j] += alphaK[i] * dh[j]
			}
			dAlpha[i] = s
		}
		dLogit := tensor.SegmentSoftmaxBackward(alphaK, dAlpha, dst, n)
		for i := 0; i < e; i++ {
			dp := dLogit[i] * tensor.LeakyReLUGradScalar(c.cachePre.At(i, k), 0.2)
			zh := zMsg.Row(i)[k*hd : (k+1)*hd]
			zdst := zAll.Row(int(dst[i]))[k*hd : (k+1)*hd]
			dzm := dZMsg.Row(i)[k*hd : (k+1)*hd]
			dzd := dZAll.Row(int(dst[i]))[k*hd : (k+1)*hd]
			gSrc := c.AttSrc.Grad.Row(k)
			gDst := c.AttDst.Grad.Row(k)
			for j := 0; j < hd; j++ {
				dzm[j] += dp * aSrc[j]
				dzd[j] += dp * aDst[j]
				gSrc[j] += dp * zh[j]
				gDst[j] += dp * zdst[j]
			}
		}
	}

	// zMsg = zAll[src] ⇒ scatter-add message grads into node grads.
	tensor.ScatterAddRows(dZAll, dZMsg, ctx.SrcIndex)
	return c.MsgLin.Backward(dZAll)
}

// Params implements Conv.
func (c *GATConv) Params() []*nn.Param {
	return append(c.MsgLin.Params(), c.AttSrc, c.AttDst)
}
