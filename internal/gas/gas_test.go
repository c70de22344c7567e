package gas

import (
	"math"
	"testing"

	"inferturbo/internal/tensor"
)

// testCtx builds a small context: 4 nodes, edges 0->1, 0->2, 1->3, 2->3, 3->0.
func testCtx(dim int, edgeDim int, seed int64) *Context {
	rng := tensor.NewRNG(seed)
	state := tensor.New(4, dim)
	rng.Uniform(state, -1, 1)
	ctx := &Context{
		NodeState: state,
		SrcIndex:  []int32{0, 0, 1, 2, 3},
		DstIndex:  []int32{1, 2, 3, 3, 0},
		NumNodes:  4,
	}
	if edgeDim > 0 {
		es := tensor.New(5, edgeDim)
		rng.Uniform(es, -1, 1)
		ctx.EdgeState = es
	}
	return ctx
}

func TestContextValidate(t *testing.T) {
	ctx := testCtx(3, 0, 1)
	if err := ctx.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testCtx(3, 0, 1)
	bad.SrcIndex[0] = 99
	if bad.Validate() == nil {
		t.Fatal("must reject out-of-range src")
	}
	bad2 := testCtx(3, 0, 1)
	bad2.DstIndex = bad2.DstIndex[:3]
	if bad2.Validate() == nil {
		t.Fatal("must reject src/dst length mismatch")
	}
}

func TestReduceKindRoundTrip(t *testing.T) {
	for _, k := range []ReduceKind{ReduceSum, ReduceMean, ReduceMax, ReduceMin, ReduceUnion} {
		got, err := ParseReduceKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip of %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseReduceKind("bogus"); err == nil {
		t.Fatal("must reject unknown reduce kind")
	}
	if ReduceUnion.Commutative() || !ReduceMean.Commutative() {
		t.Fatal("commutativity annotations wrong")
	}
}

func TestGatherKinds(t *testing.T) {
	msgs := tensor.FromRows([][]float32{{1}, {3}, {5}})
	dst := []int32{0, 0, 1}
	if got := Gather(ReduceSum, msgs, dst, 2); got.Pooled.At(0, 0) != 4 {
		t.Fatalf("sum = %v", got.Pooled.Data)
	}
	if got := Gather(ReduceMean, msgs, dst, 2); got.Pooled.At(0, 0) != 2 {
		t.Fatalf("mean = %v", got.Pooled.Data)
	}
	if got := Gather(ReduceMax, msgs, dst, 2); got.Pooled.At(0, 0) != 3 {
		t.Fatalf("max = %v", got.Pooled.Data)
	}
	if got := Gather(ReduceMin, msgs, dst, 2); got.Pooled.At(0, 0) != 1 {
		t.Fatalf("min = %v", got.Pooled.Data)
	}
	u := Gather(ReduceUnion, msgs, dst, 2)
	if len(u.Msgs) != 3 || &u.Msgs[2][0] != &msgs.Row(2)[0] || u.Pooled != nil {
		t.Fatal("union must pass views of the messages through")
	}
}

func TestSAGEInferMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(2)
	c := NewSAGEConv(SAGEConfig{InDim: 3, OutDim: 2, Reduce: ReduceMean, Activation: ActReLU}, rng)
	ctx := testCtx(3, 0, 3)
	if !c.Infer(ctx).Equal(c.Forward(ctx)) {
		t.Fatal("Infer and Forward must agree exactly")
	}
}

func TestSAGEIsolatedNodeGetsSelfOnly(t *testing.T) {
	rng := tensor.NewRNG(4)
	c := NewSAGEConv(SAGEConfig{InDim: 2, OutDim: 2, Reduce: ReduceMean, Activation: ActNone}, rng)
	state := tensor.FromRows([][]float32{{1, 2}, {3, 4}})
	// Node 1 has no in-edges.
	ctx := &Context{NodeState: state, SrcIndex: []int32{1}, DstIndex: []int32{0}, NumNodes: 2}
	out := c.Infer(ctx)
	// Node 1's output must equal SelfLin only (aggregate is zero).
	want := c.SelfLin.Apply(tensor.FromRows([][]float32{{3, 4}}))
	for j := 0; j < 2; j++ {
		if math.Abs(float64(out.At(1, j)-want.At(0, j))) > 1e-6 {
			t.Fatalf("isolated node out = %v, want %v", out.Row(1), want.Row(0))
		}
	}
}

func TestSAGEEdgePermutationInvariance(t *testing.T) {
	rng := tensor.NewRNG(5)
	c := NewSAGEConv(SAGEConfig{InDim: 3, OutDim: 2, Reduce: ReduceMean, Activation: ActReLU}, rng)
	ctx := testCtx(3, 0, 6)
	base := c.Infer(ctx)

	perm := []int{4, 2, 0, 3, 1}
	pctx := &Context{NodeState: ctx.NodeState, NumNodes: 4}
	for _, p := range perm {
		pctx.SrcIndex = append(pctx.SrcIndex, ctx.SrcIndex[p])
		pctx.DstIndex = append(pctx.DstIndex, ctx.DstIndex[p])
	}
	if !c.Infer(pctx).AllClose(base, 1e-5) {
		t.Fatal("mean aggregate must be edge-order invariant")
	}
}

// checkNumericGrad compares conv.Backward against finite differences of a
// fixed linear objective sum(w ⊙ out).
func checkNumericGrad(t *testing.T, c Conv, ctx *Context, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(99)
	probe := func() *tensor.Matrix {
		out := c.Infer(ctx)
		return out
	}
	w := tensor.New(ctx.NumNodes, c.OutDim())
	rng.Uniform(w, -1, 1)
	objective := func() float64 {
		out := probe()
		var s float64
		for i := range out.Data {
			s += float64(out.Data[i]) * float64(w.Data[i])
		}
		return s
	}

	c.Forward(ctx)
	dIn := c.Backward(w)

	const eps = 1e-2
	// Input gradient.
	for i := 0; i < len(ctx.NodeState.Data); i += 3 {
		orig := ctx.NodeState.Data[i]
		ctx.NodeState.Data[i] = orig + eps
		plus := objective()
		ctx.NodeState.Data[i] = orig - eps
		minus := objective()
		ctx.NodeState.Data[i] = orig
		num := (plus - minus) / (2 * eps)
		if math.Abs(num-float64(dIn.Data[i])) > tol {
			t.Fatalf("dIn[%d] = %v, numeric %v", i, dIn.Data[i], num)
		}
	}
	// Parameter gradients (probe a stride of each).
	for _, p := range c.Params() {
		stride := len(p.Value.Data)/4 + 1
		for i := 0; i < len(p.Value.Data); i += stride {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			plus := objective()
			p.Value.Data[i] = orig - eps
			minus := objective()
			p.Value.Data[i] = orig
			num := (plus - minus) / (2 * eps)
			if math.Abs(num-float64(p.Grad.Data[i])) > tol {
				t.Fatalf("param %s grad[%d] = %v, numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestSAGEBackwardNumericMean(t *testing.T) {
	rng := tensor.NewRNG(7)
	c := NewSAGEConv(SAGEConfig{InDim: 3, OutDim: 2, Reduce: ReduceMean, Activation: ActNone}, rng)
	checkNumericGrad(t, c, testCtx(3, 0, 8), 2e-2)
}

func TestSAGEBackwardNumericSumWithReLU(t *testing.T) {
	rng := tensor.NewRNG(9)
	c := NewSAGEConv(SAGEConfig{InDim: 3, OutDim: 2, Reduce: ReduceSum, Activation: ActReLU}, rng)
	checkNumericGrad(t, c, testCtx(3, 0, 10), 2e-2)
}

func TestSAGEBackwardNumericWithEdgeFeatures(t *testing.T) {
	rng := tensor.NewRNG(11)
	c := NewSAGEConv(SAGEConfig{InDim: 3, OutDim: 2, EdgeDim: 2, Reduce: ReduceMean, Activation: ActNone}, rng)
	checkNumericGrad(t, c, testCtx(3, 2, 12), 2e-2)
}

func TestSAGETrainRejectsMaxReduce(t *testing.T) {
	rng := tensor.NewRNG(13)
	c := NewSAGEConv(SAGEConfig{InDim: 2, OutDim: 2, Reduce: ReduceMax, Activation: ActNone}, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("training with max reduce must panic")
		}
	}()
	c.Forward(testCtx(2, 0, 14))
}

func TestSAGEBroadcastSafety(t *testing.T) {
	rng := tensor.NewRNG(15)
	plain := NewSAGEConv(SAGEConfig{InDim: 2, OutDim: 2, Reduce: ReduceMean}, rng)
	if !plain.BroadcastSafe() {
		t.Fatal("SAGE without edge features must be broadcast-safe")
	}
	withEdge := NewSAGEConv(SAGEConfig{InDim: 2, OutDim: 2, EdgeDim: 3, Reduce: ReduceMean}, rng)
	if withEdge.BroadcastSafe() {
		t.Fatal("edge-dependent messages are not broadcast-safe")
	}
}

func TestGATInferMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(16)
	c := NewGATConv(GATConfig{InDim: 3, Heads: 2, HeadDim: 2, ConcatHeads: true, Activation: ActReLU}, rng)
	ctx := testCtx(3, 0, 17)
	if !c.Infer(ctx).AllClose(c.Forward(ctx), 1e-6) {
		t.Fatal("GAT Infer and Forward must agree")
	}
}

func TestGATOutDims(t *testing.T) {
	rng := tensor.NewRNG(18)
	concat := NewGATConv(GATConfig{InDim: 3, Heads: 4, HeadDim: 5, ConcatHeads: true}, rng)
	if concat.OutDim() != 20 {
		t.Fatalf("concat out = %d", concat.OutDim())
	}
	avg := NewGATConv(GATConfig{InDim: 3, Heads: 4, HeadDim: 5, ConcatHeads: false}, rng)
	if avg.OutDim() != 5 {
		t.Fatalf("avg out = %d", avg.OutDim())
	}
	if !avg.BroadcastSafe() || avg.Reduce() != ReduceUnion {
		t.Fatal("GAT annotations wrong")
	}
}

func TestGATAttentionWeightsSumToOne(t *testing.T) {
	rng := tensor.NewRNG(19)
	c := NewGATConv(GATConfig{InDim: 3, Heads: 2, HeadDim: 2, ConcatHeads: true}, rng)
	ctx := testCtx(3, 0, 20)
	c.Forward(ctx)
	// Node 3 has two in-edges (rows 2 and 3 of the edge list).
	for k := 0; k < 2; k++ {
		s := c.cacheAlpha.At(2, k) + c.cacheAlpha.At(3, k)
		if math.Abs(float64(s-1)) > 1e-5 {
			t.Fatalf("head %d alphas at node 3 sum to %v", k, s)
		}
	}
}

func TestGATBackwardNumericConcat(t *testing.T) {
	rng := tensor.NewRNG(21)
	c := NewGATConv(GATConfig{InDim: 3, Heads: 2, HeadDim: 2, ConcatHeads: true, Activation: ActNone}, rng)
	checkNumericGrad(t, c, testCtx(3, 0, 22), 3e-2)
}

func TestGATBackwardNumericAveragedWithReLU(t *testing.T) {
	rng := tensor.NewRNG(23)
	c := NewGATConv(GATConfig{InDim: 3, Heads: 3, HeadDim: 2, ConcatHeads: false, Activation: ActReLU}, rng)
	checkNumericGrad(t, c, testCtx(3, 0, 24), 3e-2)
}

func TestGATEdgePermutationInvariance(t *testing.T) {
	rng := tensor.NewRNG(25)
	c := NewGATConv(GATConfig{InDim: 3, Heads: 2, HeadDim: 3, ConcatHeads: true}, rng)
	ctx := testCtx(3, 0, 26)
	base := c.Infer(ctx)
	perm := []int{3, 1, 4, 0, 2}
	pctx := &Context{NodeState: ctx.NodeState, NumNodes: 4}
	for _, p := range perm {
		pctx.SrcIndex = append(pctx.SrcIndex, ctx.SrcIndex[p])
		pctx.DstIndex = append(pctx.DstIndex, ctx.DstIndex[p])
	}
	if !c.Infer(pctx).AllClose(base, 1e-5) {
		t.Fatal("attention output must be edge-order invariant")
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := tensor.NewRNG(27)
	for _, c := range []Conv{
		NewSAGEConv(SAGEConfig{InDim: 2, OutDim: 2, Reduce: ReduceMean}, rng),
		NewGATConv(GATConfig{InDim: 2, Heads: 1, HeadDim: 2}, rng),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T Backward before Forward must panic", c)
				}
			}()
			c.Backward(tensor.New(4, c.OutDim()))
		}()
	}
}
