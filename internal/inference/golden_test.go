package inference

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

// goldenGATCRC is logitsCRC of goldenGAT's logits, computed on amd64 before
// GAT apply was rebuilt around distinct-source projection and kept since.
// A change that moves any logit bit — a kernel rewrite, a fold-order
// change, a toolchain upgrade — fails here and must update this constant
// on purpose. Architectures that fuse multiply-adds (arm64) legitimately
// compute other bits, so there only the paths' agreement is asserted.
const goldenGATCRC = 0xc714a4f5

// goldenGAT is the fixed pair behind goldenGATCRC: a 600-node skew-out
// graph whose hubs take the broadcast path, and a 2-layer GAT with a
// concatenated 3-head hidden layer and an averaged 3-head output layer.
func goldenGAT() (*gas.Model, *graph.Graph) {
	ds := datagen.Generate(datagen.Config{
		Name: "golden-gat", Nodes: 600, AvgDegree: 6, Skew: datagen.SkewOut, Exponent: 1.7,
		FeatureDim: 8, NumClasses: 4, Seed: 2501,
	})
	return gas.NewGATModel("golden-gat", gas.TaskSingleLabel, 8, 6, 3, 4, 2, tensor.NewRNG(2502)), ds.Graph
}

// logitsCRC is the CRC-32 (IEEE) of m's float32 bits, little-endian.
func logitsCRC(m *tensor.Matrix) uint32 {
	b := make([]byte, 0, 4*len(m.Data))
	for _, v := range m.Data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return crc32.ChecksumIEEE(b)
}

func TestGoldenGATLogitsCRC(t *testing.T) {
	m, _ := goldenGAT()
	assertGolden(t, m, goldenGATCRC)
}

// TestShadowNodesWithinTolerance pins what ShadowNodes promises: logits
// close to the plain run's, not bit-identical. Mirror ids sort after every
// original, so under ascending-source delivery a receiver folds a mirror's
// message later than it would have folded the hub's.
func TestShadowNodesWithinTolerance(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 3000)
	opts := Options{NumWorkers: 8}
	if BuildShadowGraph(g, opts.withDefaults().threshold(g)).Mirrors == 0 {
		t.Fatal("expected mirrors on an out-skewed graph")
	}
	for name, m := range map[string]*gas.Model{"sage": sageModel(t), "gcn": gcnModel(t), "gat": gatModel(t)} {
		plain, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		shadowOpts := opts
		shadowOpts.ShadowNodes = true
		shadow, err := RunPregel(m, g, shadowOpts)
		if err != nil {
			t.Fatal(err)
		}
		d := shadow.Logits.MaxAbsDiff(plain.Logits)
		if d > 1e-5 {
			t.Fatalf("%s: ShadowNodes logits differ from plain by %g", name, d)
		}
		t.Logf("%s: ShadowNodes vs plain max |Δlogit| %.2g", name, d)
	}
}

type goldenPlane struct {
	name string
	opts Options
}

// goldenFaults crashes a golden run twice, so its logits come from
// checkpoint recovery replays.
var goldenFaults = &pregel.FaultPlan{Crashes: []pregel.Fault{
	{Superstep: 1, Point: pregel.FaultAtBarrier},
	{Superstep: 2, Point: pregel.FaultBeforeSuperstep},
}}

// goldenPlanes are the four runs every golden asserts: serial and parallel,
// with and without broadcast, and one recovered from injected crashes.
var goldenPlanes = []goldenPlane{
	{"batched/w8/parallel+broadcast", Options{NumWorkers: 8, Parallel: true, Broadcast: true}},
	{"batched/w3/serial", Options{NumWorkers: 3}},
	{"batched/w4/serial+broadcast", Options{NumWorkers: 4, Broadcast: true}},
	{"batched/w4/recovered", Options{NumWorkers: 4, CheckpointEvery: 1, Faults: goldenFaults}},
}

// goldenGraph is goldenGAT's graph: 600 skew-out nodes whose hubs take the
// broadcast path.
func goldenGraph() *graph.Graph {
	_, g := goldenGAT()
	return g
}

// assertGolden checks ReferenceForward's logits CRC against want on amd64
// and every plane's logits against ReferenceForward, plus the planes in
// extra (PartialGather where its folds are exact).
func assertGolden(t *testing.T, m *gas.Model, want uint32, extra ...Options) {
	t.Helper()
	g := goldenGraph()
	ref := logitsCRC(ReferenceForward(m, g))
	if runtime.GOARCH == "amd64" && ref != want {
		t.Fatalf("ReferenceForward logits CRC %#08x, golden %#08x", ref, want)
	}
	planes := slices.Clone(goldenPlanes)
	for i, o := range extra {
		planes = append(planes, goldenPlane{fmt.Sprintf("extra-%d", i), o})
	}
	for _, tc := range planes {
		res, err := RunPregel(m, g, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.opts.Broadcast && res.Stats.BroadcastHubs == 0 {
			t.Fatalf("%s: no hub took the broadcast path", tc.name)
		}
		if tc.opts.PartialGather && res.Stats.CombinedAway == 0 {
			t.Fatalf("%s: nothing was combined", tc.name)
		}
		if f := tc.opts.Faults; f != nil && res.Stats.Recoveries != len(f.Crashes) {
			t.Fatalf("%s: %d recoveries, want %d", tc.name, res.Stats.Recoveries, len(f.Crashes))
		}
		if got := logitsCRC(res.Logits); got != ref {
			t.Errorf("%s: logits CRC %#08x, ReferenceForward %#08x", tc.name, got, ref)
		}
	}
}

// The goldens below are logitsCRC values computed on amd64, with the same
// contract as goldenGATCRC: a change to the scatter, emit or apply path that
// moves a SAGE, GCN or GIN bit fails here.
const (
	goldenSAGEMeanCRC = 0xedf610c7
	goldenSAGEMaxCRC  = 0xce66a85e
	goldenGCNCRC      = 0x9bc5ca4c
	goldenGINCRC      = 0x424d8401
)

func TestGoldenSAGEMeanLogitsCRC(t *testing.T) {
	assertGolden(t, gas.NewSAGEModel("golden-sage-mean", gas.TaskSingleLabel, 8, 12, 4, 2, 0, tensor.NewRNG(2503)), goldenSAGEMeanCRC)
}

// TestGoldenSAGEMaxLogitsCRC also runs PartialGather: a max fold is exact in
// any grouping, so the sender-side combiner moves no bit.
func TestGoldenSAGEMaxLogitsCRC(t *testing.T) {
	rng := tensor.NewRNG(2504)
	m := &gas.Model{Name: "golden-sage-max", Task: gas.TaskSingleLabel, NumClasses: 4, Layers: []gas.Conv{
		gas.NewSAGEConv(gas.SAGEConfig{InDim: 8, OutDim: 12, Reduce: gas.ReduceMax, Activation: gas.ActReLU}, rng),
		gas.NewSAGEConv(gas.SAGEConfig{InDim: 12, OutDim: 4, Reduce: gas.ReduceMax, Activation: gas.ActNone}, rng),
	}}
	assertGolden(t, m, goldenSAGEMaxCRC,
		Options{NumWorkers: 8, Parallel: true, PartialGather: true},
		Options{NumWorkers: 3, PartialGather: true})
}

func TestGoldenGCNLogitsCRC(t *testing.T) {
	assertGolden(t, gas.NewGCNModel("golden-gcn", gas.TaskSingleLabel, 8, 12, 4, 2, tensor.NewRNG(2505)), goldenGCNCRC)
}

func TestGoldenGINLogitsCRC(t *testing.T) {
	assertGolden(t, gas.NewGINModel("golden-gin", gas.TaskSingleLabel, 8, 12, 4, 2, tensor.NewRNG(2506)), goldenGINCRC)
}
