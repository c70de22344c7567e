package gas

import (
	"testing"

	"inferturbo/internal/tensor"
)

// benchCtx builds a random context with n nodes and e edges.
func benchCtx(n, e, dim int, seed int64) *Context {
	rng := tensor.NewRNG(seed)
	state := tensor.New(n, dim)
	rng.Uniform(state, -1, 1)
	src := make([]int32, e)
	dst := make([]int32, e)
	for i := range src {
		src[i] = int32(rng.Intn(n))
		dst[i] = int32(rng.Intn(n))
	}
	return &Context{NodeState: state, SrcIndex: src, DstIndex: dst, NumNodes: n}
}

func TestFusedScatterGatherMatchesDefault(t *testing.T) {
	ctx := benchCtx(200, 1500, 16, 1)
	for _, kind := range []ReduceKind{ReduceSum, ReduceMean} {
		msg := tensor.GatherRows(ctx.NodeState, ctx.SrcIndex)
		want := Gather(kind, msg, ctx.DstIndex, ctx.NumNodes)
		got := FusedScatterGather(kind, ctx.NodeState, ctx.SrcIndex, ctx.DstIndex, ctx.NumNodes)
		if !got.Pooled.AllClose(want.Pooled, 1e-5) {
			t.Fatalf("fused %v diverges from default path", kind)
		}
	}
}

func TestFusedScatterGatherRejectsUnion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FusedScatterGather(ReduceUnion, tensor.New(1, 1), nil, nil, 1)
}

// Ablation: fused scatter_and_gather vs explicit edge materialization —
// the design choice the paper's GraphSAGE training example makes.
func BenchmarkScatterGatherDefault(b *testing.B) {
	ctx := benchCtx(5000, 50000, 64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg := tensor.GatherRows(ctx.NodeState, ctx.SrcIndex)
		Gather(ReduceMean, msg, ctx.DstIndex, ctx.NumNodes)
	}
}

func BenchmarkScatterGatherFused(b *testing.B) {
	ctx := benchCtx(5000, 50000, 64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FusedScatterGather(ReduceMean, ctx.NodeState, ctx.SrcIndex, ctx.DstIndex, ctx.NumNodes)
	}
}

func BenchmarkSAGELayerInfer(b *testing.B) {
	rng := tensor.NewRNG(3)
	c := NewSAGEConv(SAGEConfig{InDim: 64, OutDim: 64, Reduce: ReduceMean, Activation: ActReLU}, rng)
	ctx := benchCtx(2000, 20000, 64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Infer(ctx)
	}
}

func BenchmarkGATLayerInfer(b *testing.B) {
	rng := tensor.NewRNG(5)
	c := NewGATConv(GATConfig{InDim: 64, Heads: 2, HeadDim: 32, ConcatHeads: true}, rng)
	ctx := benchCtx(2000, 20000, 64, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Infer(ctx)
	}
}

// BenchmarkGATApply is one batched-plane worker's GAT apply on the hub-out
// benchmark shape, fed the way the drivers feed it: ~1.25k owned rows with
// their own emitted rows, 12k received messages viewing the emitted rows
// of 3.1k distinct sources (64-wide input, 4 concatenated 16-wide heads, so
// 68-float rows), on a warm pool. Emitting is the senders' cost and stays
// outside the loop.
func BenchmarkGATApply(b *testing.B) {
	c := NewGATConv(GATConfig{InDim: 64, Heads: 4, HeadDim: 16, ConcatHeads: true, Activation: ActReLU}, tensor.NewRNG(9))
	state, srcs, row, dst := gatCase(1250, 3100, 12000, 64, 10)
	aggr := gatAggr(c, state, srcs, row, dst)
	p := tensor.NewPool()
	p.Put(c.ApplyNodePooled(state, aggr, p))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Put(c.ApplyNodePooled(state, aggr, p))
	}
}

func BenchmarkSAGETrainStep(b *testing.B) {
	rng := tensor.NewRNG(7)
	c := NewSAGEConv(SAGEConfig{InDim: 64, OutDim: 64, Reduce: ReduceMean, Activation: ActReLU}, rng)
	ctx := benchCtx(1000, 10000, 64, 8)
	dOut := tensor.New(1000, 64)
	dOut.Fill(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Forward(ctx)
		c.Backward(dOut)
	}
}
