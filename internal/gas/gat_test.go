package gas

import (
	"math"
	"sync"
	"testing"

	"inferturbo/internal/tensor"
)

// gatCase builds the raw inputs of a GAT apply: n receiver states, u
// distinct source states and e > u messages over them (row[i] is message
// i's source, so sources repeat), with destinations in random order and
// node n-1 receiving nothing.
func gatCase(n, u, e, dim int, seed int64) (state, srcs *tensor.Matrix, row, dst []int32) {
	rng := tensor.NewRNG(seed)
	state = tensor.New(n, dim)
	rng.Uniform(state, -1, 1)
	srcs = tensor.New(u, dim)
	rng.Uniform(srcs, -1, 1)
	row = make([]int32, e)
	dst = make([]int32, e)
	for i := range row {
		row[i] = int32(rng.Intn(u))
		dst[i] = int32(rng.Intn(n - 1))
	}
	return state, srcs, row, dst
}

// gatAggr emits the receivers' and the sources' states with c and returns
// the Union aggregate a driver hands apply_node: message i views source
// row[i]'s emitted row, as a payload view of the sender's message would.
func gatAggr(c *GATConv, state, srcs *tensor.Matrix, row, dst []int32) *Aggregated {
	self := tensor.New(state.Rows, c.MsgDim())
	c.Emit(self, state, nil, tensor.NewPool())
	em := tensor.New(srcs.Rows, c.MsgDim())
	c.Emit(em, srcs, nil, tensor.NewPool())
	return &Aggregated{Kind: ReduceUnion, Self: self, Msgs: rowViews(em, row), Dst: dst}
}

// poison writes hostile floats into the first rows of m: a NaN, ±Inf, an
// all −0 row and a row mixing −0 with finite values.
func poison(m *tensor.Matrix) {
	negZero := float32(math.Copysign(0, -1))
	m.Row(0)[1] = float32(math.NaN())
	m.Row(1)[0] = float32(math.Inf(1))
	m.Row(2)[2] = float32(math.Inf(-1))
	for j := range m.Row(3) {
		m.Row(3)[j] = negZero
	}
	m.Row(4)[0] = negZero
}

// naiveAttention is the plain form of GAT attention that attend must
// reproduce bit for bit: per head, materialized logits, a segment softmax,
// an E x hd weighted-message matrix and a segment sum; heads concatenated,
// or averaged by summing in head order and scaling.
func naiveAttention(c *GATConv, zAll, zMsg *tensor.Matrix, dst []int32) (out, pre, alpha *tensor.Matrix) {
	n, e, hd := zAll.Rows, zMsg.Rows, c.headDim
	pre, alpha = tensor.New(e, c.heads), tensor.New(e, c.heads)
	var heads []*tensor.Matrix
	for k := 0; k < c.heads; k++ {
		aSrc, aDst := c.AttSrc.Value.Row(k), c.AttDst.Value.Row(k)
		logits := make([]float32, e)
		for i := 0; i < e; i++ {
			zs := zMsg.Row(i)[k*hd : (k+1)*hd]
			zd := zAll.Row(int(dst[i]))[k*hd : (k+1)*hd]
			var s, t float32
			for j, a := range aSrc {
				s += a * zs[j]
			}
			for j, a := range aDst {
				t += a * zd[j]
			}
			pre.Set(i, k, s+t)
			logits[i] = tensor.LeakyReLUScalar(s+t, 0.2)
		}
		al := tensor.SegmentSoftmax(logits, dst, n)
		weighted := tensor.New(e, hd)
		for i := 0; i < e; i++ {
			alpha.Set(i, k, al[i])
			z := zMsg.Row(i)[k*hd : (k+1)*hd]
			for j := range z {
				weighted.Row(i)[j] = al[i] * z[j]
			}
		}
		heads = append(heads, tensor.SegmentSum(weighted, dst, n))
	}
	out = heads[0].Clone()
	for _, h := range heads[1:] {
		if c.concatHeads {
			out = tensor.ConcatCols(out, h)
		} else {
			tensor.AddInPlace(out, h)
		}
	}
	if !c.concatHeads {
		out.ScaleInPlace(1 / float32(c.heads))
	}
	return out, pre, alpha
}

// sameBits compares two matrices bit for bit (NaN payloads and the sign of
// zero included).
func sameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x)", what, i,
				v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestGATIndexedApplyMatchesExpanded: apply over emitted rows — messages
// sharing a source viewing one row, or each carrying its own copy — is the
// plain attention over receiver-side projections, bit for bit, hostile
// source floats included.
func TestGATIndexedApplyMatchesExpanded(t *testing.T) {
	for _, concat := range []bool{true, false} {
		c := NewGATConv(GATConfig{InDim: 6, Heads: 3, HeadDim: 4, ConcatHeads: concat, Activation: ActLeaky}, tensor.NewRNG(41))
		state, srcs, row, dst := gatCase(30, 12, 150, 6, 42)
		poison(srcs)
		expanded := tensor.GatherRows(srcs, row)

		out, _, _ := naiveAttention(c, c.MsgLin.Apply(state), c.MsgLin.Apply(expanded), dst)
		want := applyActivation(ActLeaky, out)
		full := c.ApplyNode(state, gatAggr(c, state, expanded, nil, dst))
		sameBits(t, "ApplyNode over one emitted row per message", full, want)
		indexed := c.ApplyNodePooled(state, gatAggr(c, state, srcs, row, dst), tensor.NewPool())
		sameBits(t, "ApplyNodePooled over shared emitted rows", indexed, want)

		for j, v := range indexed.Row(state.Rows - 1) {
			if v != 0 {
				t.Fatalf("concat=%v: node without messages has output %v at %d", concat, v, j)
			}
		}
		if !hasNaN(indexed) {
			t.Fatalf("concat=%v: the NaN message row did not reach the output", concat)
		}
	}
}

func hasNaN(m *tensor.Matrix) bool {
	for _, v := range m.Data {
		if v != v {
			return true
		}
	}
	return false
}

// TestGATForwardUnchanged pins the training path to the plain attention:
// output, pre-activation and the pre/alpha caches Backward reads, bit for
// bit, with Infer agreeing exactly.
func TestGATForwardUnchanged(t *testing.T) {
	for _, concat := range []bool{true, false} {
		c := NewGATConv(GATConfig{InDim: 6, Heads: 3, HeadDim: 4, ConcatHeads: concat, Activation: ActReLU}, tensor.NewRNG(43))
		state, _, row, dst := gatCase(30, 30, 150, 6, 44)
		poison(state)
		ctx := &Context{NodeState: state, SrcIndex: row, DstIndex: dst, NumNodes: state.Rows}

		zAll := c.MsgLin.Apply(state)
		wantOut, wantPre, wantAlpha := naiveAttention(c, zAll, tensor.GatherRows(zAll, ctx.SrcIndex), ctx.DstIndex)
		got := c.Forward(ctx)
		sameBits(t, "Forward output", got, applyActivation(ActReLU, wantOut))
		sameBits(t, "Forward pre-activation cache", c.cachePreAct, wantOut)
		sameBits(t, "Forward logit cache", c.cachePre, wantPre)
		sameBits(t, "Forward alpha cache", c.cacheAlpha, wantAlpha)
		sameBits(t, "Infer", c.Infer(ctx), got)
	}
}

// TestGATApplyAllocsIndependentOfEdges: on a warm pool, the allocation count
// of one apply does not grow with the message count. Every pooled request
// is a power of two so the buffer a call returns serves the next call's
// request of the same size (tensor.Pool files an exact-size buffer one size
// class below the class a same-size request looks in). Apply runs no
// MatMul, leaving only the softmax denominators.
func TestGATApplyAllocsIndependentOfEdges(t *testing.T) {
	defer tensor.SetTuning(tensor.SetTuning(tensor.Tuning{Workers: 1}))
	for _, concat := range []bool{true, false} {
		c := NewGATConv(GATConfig{InDim: 16, Heads: 4, HeadDim: 8, ConcatHeads: concat, Activation: ActReLU}, tensor.NewRNG(45))
		allocs := func(e int) float64 {
			state, srcs, row, dst := gatCase(256, 512, e, 16, 46)
			aggr := gatAggr(c, state, srcs, row, dst)
			p := tensor.NewPool()
			return testing.AllocsPerRun(10, func() {
				p.Put(c.ApplyNodePooled(state, aggr, p))
			})
		}
		small, large := allocs(1<<10), allocs(1<<16)
		if small != large || small > 1 {
			t.Fatalf("concat=%v: %v allocations per apply at E=1k, %v at E=64k", concat, small, large)
		}
	}
}

// TestGATApplyConcurrentSharedConv runs one GATConv from 8 goroutines, each
// with its own pool; under -race this proves the apply path writes nothing
// shared.
func TestGATApplyConcurrentSharedConv(t *testing.T) {
	for _, concat := range []bool{true, false} {
		c := NewGATConv(GATConfig{InDim: 8, Heads: 2, HeadDim: 4, ConcatHeads: concat, Activation: ActReLU}, tensor.NewRNG(47))
		state, srcs, row, dst := gatCase(60, 40, 400, 8, 48)
		aggr := gatAggr(c, state, srcs, row, dst)
		want := c.ApplyNodePooled(state, aggr, tensor.NewPool())
		var wg sync.WaitGroup
		bad := make(chan int, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := tensor.NewPool()
				for it := 0; it < 20; it++ {
					got := c.ApplyNodePooled(state, aggr, p)
					for i, v := range got.Data {
						if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
							bad <- g
							return
						}
					}
					p.Put(got)
				}
			}()
		}
		wg.Wait()
		close(bad)
		for g := range bad {
			t.Fatalf("concat=%v: goroutine %d computed different bits", concat, g)
		}
	}
}
