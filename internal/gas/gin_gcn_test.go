package gas

import (
	"bytes"
	"math"
	"testing"

	"inferturbo/internal/tensor"
)

func TestGINInferMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := NewGINConv(GINConfig{InDim: 3, Hidden: 5, OutDim: 2, Activation: ActReLU}, rng)
	ctx := testCtx(3, 0, 2)
	if !c.Infer(ctx).AllClose(c.Forward(ctx), 1e-6) {
		t.Fatal("GIN Infer and Forward must agree")
	}
}

func TestGINAnnotations(t *testing.T) {
	rng := tensor.NewRNG(3)
	c := NewGINConv(GINConfig{InDim: 3, OutDim: 2}, rng)
	if c.Reduce() != ReduceSum || !c.BroadcastSafe() || c.Type() != "gin" {
		t.Fatal("GIN annotations wrong")
	}
	if c.Hidden() != 2 {
		t.Fatal("hidden must default to OutDim")
	}
}

func TestGINBackwardNumeric(t *testing.T) {
	rng := tensor.NewRNG(4)
	c := NewGINConv(GINConfig{InDim: 3, Hidden: 4, OutDim: 2, Activation: ActNone}, rng)
	// Non-zero ε so its gradient path is exercised.
	c.Eps.Value.Data[0] = 0.3
	checkNumericGrad(t, c, testCtx(3, 0, 5), 3e-2)
}

func TestGINEpsilonGradientNumeric(t *testing.T) {
	rng := tensor.NewRNG(6)
	c := NewGINConv(GINConfig{InDim: 3, Hidden: 4, OutDim: 2, Activation: ActNone}, rng)
	ctx := testCtx(3, 0, 7)
	w := tensor.New(ctx.NumNodes, 2)
	tensor.NewRNG(8).Uniform(w, -1, 1)

	objective := func() float64 {
		out := c.Infer(ctx)
		var s float64
		for i := range out.Data {
			s += float64(out.Data[i]) * float64(w.Data[i])
		}
		return s
	}
	c.Forward(ctx)
	c.Backward(w)
	const eps = 1e-2
	orig := c.Eps.Value.Data[0]
	c.Eps.Value.Data[0] = orig + eps
	plus := objective()
	c.Eps.Value.Data[0] = orig - eps
	minus := objective()
	c.Eps.Value.Data[0] = orig
	num := (plus - minus) / (2 * eps)
	if math.Abs(num-float64(c.Eps.Grad.Data[0])) > 2e-2 {
		t.Fatalf("dε = %v, numeric %v", c.Eps.Grad.Data[0], num)
	}
}

func TestGCNInferMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(9)
	c := NewGCNConv(GCNConfig{InDim: 3, OutDim: 2, Activation: ActReLU}, rng)
	ctx := testCtx(3, 0, 10)
	if !c.Infer(ctx).AllClose(c.Forward(ctx), 1e-6) {
		t.Fatal("GCN Infer and Forward must agree")
	}
}

func TestGCNAnnotations(t *testing.T) {
	rng := tensor.NewRNG(11)
	c := NewGCNConv(GCNConfig{InDim: 3, OutDim: 2}, rng)
	if c.Reduce() != ReduceSum || !c.BroadcastSafe() || c.Type() != "gcn" {
		t.Fatal("GCN annotations wrong")
	}
	var e Emitter = c // must implement the degree hook
	if e.MsgDim() != 3 || e.SelfEmitted() {
		t.Fatal("GCN emits its scaled state and does not read it back")
	}
}

// TestGCNScaleMessage: Emit scales each row by its own out-degree and
// leaves the state alone.
func TestGCNScaleMessage(t *testing.T) {
	rng := tensor.NewRNG(12)
	c := NewGCNConv(GCNConfig{InDim: 2, OutDim: 2}, rng)
	h := tensor.FromRows([][]float32{{2, 4}, {2, 4}})
	got := tensor.New(2, 2)
	c.Emit(got, h, []int32{3, 0}, nil) // scales 1/√4 = 0.5 and 1
	if got.Row(0)[0] != 1 || got.Row(0)[1] != 2 || got.Row(1)[0] != 2 || got.Row(1)[1] != 4 {
		t.Fatalf("Emit = %v", got.Data)
	}
	if h.Row(0)[0] != 2 {
		t.Fatal("Emit must not mutate its input")
	}
}

func TestGCNBackwardNumeric(t *testing.T) {
	rng := tensor.NewRNG(13)
	c := NewGCNConv(GCNConfig{InDim: 3, OutDim: 2, Activation: ActNone}, rng)
	checkNumericGrad(t, c, testCtx(3, 0, 14), 3e-2)
}

func TestGCNBackwardNumericWithReLU(t *testing.T) {
	rng := tensor.NewRNG(15)
	c := NewGCNConv(GCNConfig{InDim: 3, OutDim: 2, Activation: ActReLU}, rng)
	checkNumericGrad(t, c, testCtx(3, 0, 16), 3e-2)
}

func TestGCNNormalizationBoundsOutput(t *testing.T) {
	// A node with huge in-degree must not blow up: the √-normalization keeps
	// the aggregate comparable to a single message magnitude.
	rng := tensor.NewRNG(17)
	c := NewGCNConv(GCNConfig{InDim: 1, OutDim: 1, Activation: ActNone}, rng)
	c.SelfLin.W.Value.Fill(0)
	c.SelfLin.B.Value.Fill(0)
	c.NbrLin.W.Value.Fill(1)
	c.NbrLin.B.Value.Fill(0)

	n := 101
	state := tensor.New(n, 1)
	state.Fill(1)
	var src, dst []int32
	for v := int32(1); v < int32(n); v++ {
		src = append(src, v)
		dst = append(dst, 0)
	}
	ctx := &Context{NodeState: state, SrcIndex: src, DstIndex: dst, NumNodes: n}
	out := c.Infer(ctx)
	// Each of 100 senders has out-degree 1 ⇒ message 1/√2; receiver divides
	// by √101: 100/(√2·√101) ≈ 7.0.
	want := 100.0 / (math.Sqrt2 * math.Sqrt(101))
	if math.Abs(float64(out.At(0, 0))-want) > 1e-3 {
		t.Fatalf("hub output = %v, want %v", out.At(0, 0), want)
	}
}

func TestGINModelAndGCNModelShapes(t *testing.T) {
	rng := tensor.NewRNG(18)
	gin := NewGINModel("gin", TaskSingleLabel, 8, 16, 5, 3, rng)
	gcn := NewGCNModel("gcn", TaskSingleLabel, 8, 16, 5, 2, rng)
	ctx := testCtx(8, 0, 19)
	if out := gin.Infer(ctx); out.Cols != 5 {
		t.Fatalf("gin logits = %d cols", out.Cols)
	}
	if out := gcn.Infer(ctx); out.Cols != 5 {
		t.Fatalf("gcn logits = %d cols", out.Cols)
	}
}

func TestSignatureRoundTripGINAndGCN(t *testing.T) {
	rng := tensor.NewRNG(20)
	for _, m := range []*Model{
		NewGINModel("gin-rt", TaskSingleLabel, 6, 8, 3, 2, rng),
		NewGCNModel("gcn-rt", TaskMultiLabel, 6, 8, 3, 2, rng),
	} {
		ctx := testCtx(6, 0, 21)
		want := m.Infer(ctx)
		var buf bytes.Buffer
		if err := Save(m, &buf); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		m2, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !m2.Infer(ctx).Equal(want) {
			t.Fatalf("%s: loaded model differs", m.Name)
		}
	}
}

func TestGINEdgePermutationInvariance(t *testing.T) {
	rng := tensor.NewRNG(22)
	c := NewGINConv(GINConfig{InDim: 3, OutDim: 2}, rng)
	ctx := testCtx(3, 0, 23)
	base := c.Infer(ctx)
	perm := []int{4, 0, 3, 1, 2}
	pctx := &Context{NodeState: ctx.NodeState, NumNodes: 4}
	for _, p := range perm {
		pctx.SrcIndex = append(pctx.SrcIndex, ctx.SrcIndex[p])
		pctx.DstIndex = append(pctx.DstIndex, ctx.DstIndex[p])
	}
	if !c.Infer(pctx).AllClose(base, 1e-5) {
		t.Fatal("GIN must be edge-order invariant")
	}
}
