package pregel

import (
	"testing"

	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// Message-plane benchmarks: a GNN-shaped payload fan-out (16-wide state
// vectors along every edge, sender-side combining) measured end to end on
// both planes. The columnar plane's wins come from exactly the costs these
// isolate: per-message payload boxing, per-merge combiner allocation, and
// per-vertex inbox rebuilding.

const benchDim = 16

// benchMsg is a boxed GNN state message: source, folded count, payload.
type benchMsg struct {
	src   int32
	count int32
	pay   []float32
}

type benchBoxedProg struct{ rounds int }

func (p *benchBoxedProg) Compute(ctx *Context[[]float32, benchMsg], msgs []benchMsg) {
	if ctx.Superstep == 0 {
		v := make([]float32, benchDim)
		for i := range v {
			v[i] = float32(int(ctx.ID+int32(i)) % 13)
		}
		*ctx.Value = v
	} else {
		// The shared-payload send below aliases this buffer in receivers'
		// inboxes until the next superstep, so the boxed plane forces a
		// fresh state buffer every round — the allocation the columnar
		// program avoids.
		next := make([]float32, benchDim)
		for _, m := range msgs {
			for i, x := range m.pay {
				next[i] += x
			}
		}
		for i := range next {
			next[i] = float32(int(next[i]) % 9973)
		}
		*ctx.Value = next
	}
	if ctx.Superstep >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	dsts, _ := ctx.OutEdges()
	// Identity apply_edge: one shared payload for all out-edges (the
	// combiner copies before mutating).
	m := benchMsg{src: ctx.ID, count: 1, pay: *ctx.Value}
	for _, d := range dsts {
		ctx.SendMessage(d, m)
	}
}

// benchBoxedCombiner copies on the first merge and accumulates into that
// owned buffer (src == -1) on every later one.
func benchBoxedCombiner(a, b benchMsg) (benchMsg, bool) {
	acc := a.pay
	if a.src != -1 {
		acc = make([]float32, len(a.pay))
		copy(acc, a.pay)
	}
	for i, v := range b.pay {
		acc[i] += v
	}
	return benchMsg{src: -1, count: a.count + b.count, pay: acc}, true
}

type benchColProg struct{ rounds int }

func (p *benchColProg) Compute(ctx *Context[[]float32, benchMsg], _ []benchMsg) {
	if ctx.Superstep == 0 {
		v := make([]float32, benchDim)
		for i := range v {
			v[i] = float32(int(ctx.ID+int32(i)) % 13)
		}
		*ctx.Value = v
	} else {
		// SendColumnar copied last round's state into its send buffer, so unlike
		// the boxed program this one may accumulate into its state buffer
		// in place — no per-vertex allocation after initialization.
		in := ctx.ColumnarInbox()
		next := *ctx.Value
		for i := range next {
			next[i] = 0
		}
		for i := 0; i < in.Len(); i++ {
			for j, x := range in.Payloads[i] {
				next[j] += x
			}
		}
		for i := range next {
			next[i] = float32(int(next[i]) % 9973)
		}
	}
	if ctx.Superstep >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	dsts, _ := ctx.OutEdges()
	for _, d := range dsts {
		ctx.SendColumnar(d, 0, ctx.ID, 1, *ctx.Value)
	}
}

func benchColCombiner(_ uint8, acc, pay []float32, accCount, payCount int32) (int32, bool) {
	for i, v := range pay {
		acc[i] += v
	}
	return accCount + payCount, true
}

func benchTopology(b *testing.B) Topology {
	b.Helper()
	rng := tensor.NewRNG(42)
	gb := graph.NewBuilder(2000)
	for i := 0; i < 16000; i++ {
		gb.AddEdge(int32(rng.Intn(2000)), int32(rng.Intn(2000)), nil)
	}
	return GraphTopology{G: gb.Build()}
}

const benchRounds = 6

func benchmarkBoxed(b *testing.B, combine, parallel bool) {
	topo := benchTopology(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config[benchMsg]{
			NumWorkers:   8,
			Parallel:     parallel,
			MessageBytes: func(m benchMsg) int { return 4*len(m.pay) + 16 },
		}
		if combine {
			cfg.Combiner = benchBoxedCombiner
		}
		eng := NewEngine[[]float32, benchMsg](topo, &benchBoxedProg{rounds: benchRounds}, cfg)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkColumnar(b *testing.B, combine, parallel bool) {
	topo := benchTopology(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := &ColumnarOps{}
		if combine {
			ops.Combine = benchColCombiner
		}
		eng := NewEngine[[]float32, benchMsg](topo, &benchColProg{rounds: benchRounds}, Config[benchMsg]{
			NumWorkers: 8, Parallel: parallel, Columnar: ops,
		})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuperstepBoxed(b *testing.B)            { benchmarkBoxed(b, false, false) }
func BenchmarkSuperstepBoxedCombine(b *testing.B)     { benchmarkBoxed(b, true, false) }
func BenchmarkSuperstepColumnar(b *testing.B)         { benchmarkColumnar(b, false, false) }
func BenchmarkSuperstepColumnarCombine(b *testing.B)  { benchmarkColumnar(b, true, false) }
func BenchmarkSuperstepBoxedParallel(b *testing.B)    { benchmarkBoxed(b, true, true) }
func BenchmarkSuperstepColumnarParallel(b *testing.B) { benchmarkColumnar(b, true, true) }
