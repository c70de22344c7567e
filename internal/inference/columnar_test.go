package inference

import (
	"fmt"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// Accounting tests for the columnar message plane: the traffic counts are
// exact, execution-independent, and move in each skew strategy's documented
// direction.

// strategyCombos enumerates the paper's strategy power set.
func strategyCombos(workers int, parallel bool) []Options {
	var out []Options
	for _, pg := range []bool{false, true} {
		for _, bc := range []bool{false, true} {
			for _, sn := range []bool{false, true} {
				out = append(out, Options{
					NumWorkers:    workers,
					PartialGather: pg,
					Broadcast:     bc,
					ShadowNodes:   sn,
					Parallel:      parallel,
				})
			}
		}
	}
	return out
}

func comboName(o Options) string {
	return fmt.Sprintf("w%d/pg=%v/bc=%v/sn=%v/par=%v",
		o.NumWorkers, o.PartialGather, o.Broadcast, o.ShadowNodes, o.Parallel)
}

// layerBytes is the plain exchange's byte count for a model whose layer k
// sends one message of width(l) floats along every edge of g.
func layerBytes(g *graph.Graph, m *gas.Model, width func(gas.Conv) int) int64 {
	var b int64
	for _, l := range m.Layers {
		b += int64(g.NumEdges) * int64(payloadBytes(width(l)))
	}
	return b
}

// TestColumnarPlaneBitIdenticalAllStrategies: under every strategy
// combination and worker count, serial and parallel runs agree on the
// logits and every traffic count. The plain exchange sends exactly one
// message per edge per layer at the layer's input width, at any worker
// count; partial-gather folds some of them into others without losing
// one; broadcast hubs send fewer bytes than the plain exchange.
func TestColumnarPlaneBitIdenticalAllStrategies(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 220)
	m := sageModel(t)
	wantMsgs := int64(g.NumEdges * m.NumLayers())
	wantBytes := layerBytes(g, m, gas.Conv.InDim)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, opts := range strategyCombos(workers, false) {
			st := runSerialParallel(t, m, g, opts).Stats
			name := comboName(opts)
			if opts.ShadowNodes {
				continue // mirrors rewrite the edge set the counts are stated over
			}
			switch {
			case !opts.PartialGather && !opts.Broadcast:
				if st.MessagesSent != wantMsgs || st.BytesSent != wantBytes || st.CombinedAway != 0 || st.BroadcastHubs != 0 {
					t.Fatalf("%s: sent %d msgs / %d bytes (combined %d, hubs %d), want %d / %d",
						name, st.MessagesSent, st.BytesSent, st.CombinedAway, st.BroadcastHubs, wantMsgs, wantBytes)
				}
			case opts.PartialGather && !opts.Broadcast:
				if st.CombinedAway == 0 || st.MessagesSent+st.CombinedAway != wantMsgs {
					t.Fatalf("%s: sent %d + combined %d, want %d in all", name, st.MessagesSent, st.CombinedAway, wantMsgs)
				}
			case opts.Broadcast && !opts.PartialGather:
				if workers == 8 && st.BroadcastHubs == 0 {
					t.Fatalf("%s: no hub took the broadcast path", name)
				}
				if st.BroadcastHubs > 0 && st.BytesSent >= wantBytes {
					t.Fatalf("%s: broadcast sent %d bytes, plain %d", name, st.BytesSent, wantBytes)
				}
			}
		}
	}
}

// TestColumnarPlaneBitIdenticalGAT covers the union-reduce (GAT) path: wire
// rows are the emitted [z | source scores] width, and the combiner must
// decline union messages under partial-gather.
func TestColumnarPlaneBitIdenticalGAT(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 200)
	m := gatModel(t)
	wantBytes := layerBytes(g, m, func(l gas.Conv) int { return emitterOf(l).MsgDim() })
	for _, workers := range []int{1, 4, 8} {
		for _, opts := range []Options{
			{NumWorkers: workers},
			{NumWorkers: workers, PartialGather: true},
		} {
			st := runSerialParallel(t, m, g, opts).Stats
			if st.CombinedAway != 0 || st.BytesSent != wantBytes {
				t.Fatalf("%s: %d bytes sent, %d combined; want %d bytes, none combined",
					comboName(opts), st.BytesSent, st.CombinedAway, wantBytes)
			}
		}
	}
}

// TestColumnarPlaneEdgeFeatures covers the edge-dependent apply_edge
// scatter path: each out-edge gets its own payload in the arena, so the
// plain exchange is one message per edge per layer and partial-gather folds
// them without losing one.
func TestColumnarPlaneEdgeFeatures(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Name: "col-ef", Nodes: 180, AvgDegree: 5, Skew: datagen.SkewOut,
		FeatureDim: 6, NumClasses: 3, Seed: 31, EdgeFeature: true,
	})
	m := gas.NewSAGEModel("sage-col-ef", gas.TaskSingleLabel, 6, 8, 3, 2, 4, tensor.NewRNG(32))
	wantMsgs := int64(ds.Graph.NumEdges * m.NumLayers())
	for _, opts := range []Options{
		{NumWorkers: 1},
		{NumWorkers: 4, PartialGather: true},
		{NumWorkers: 8, PartialGather: true},
	} {
		st := runSerialParallel(t, m, ds.Graph, opts).Stats
		if st.MessagesSent+st.CombinedAway != wantMsgs || (opts.PartialGather && st.CombinedAway == 0) {
			t.Fatalf("%s: sent %d + combined %d, want %d in all", comboName(opts), st.MessagesSent, st.CombinedAway, wantMsgs)
		}
	}
}
