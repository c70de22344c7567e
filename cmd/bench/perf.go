package main

// The -perf mode: machine-readable compute/message-plane benchmarks. Each
// run measures the Pregel backend end to end — partition-centric
// ComputeBatch over columnar messages, its one GNN plane — under each skew
// strategy, plus the MapReduce backend and the reference forward as fixed
// points, a
// partitioning suite comparing vertex-placement strategies (hash, degree-
// balanced, LDG, Fennel) on homophilous power-law graphs.
//
// Gates fail the run (and CI): the identity check — predictions
// byte-identical across strategies, worker counts AND placement strategies;
// at full scale, the PR 3 reductions vs the recorded PR 2 baseline; the
// partitioning gate — LDG must cut cross-worker message bytes by ≥ 25% vs
// hash on the skew-in benchmark graph; the PR 6 checkpoint
// gate — durable disk checkpoints at CheckpointEvery=4 must cost ≤ 10%
// ns/op vs the same bench with checkpoints off; the PR 7 serving SLO gates;
// and the PR 8 delta gate — an incremental refresh of a 1% mutation batch
// must be ≥ 5x faster than the same-run full pass and bit-identical to it.
// Results are written as JSON so the perf trajectory is tracked commit over
// commit: BENCH_PR2.json at the repository root records the run that landed
// the columnar message plane, BENCH_PR3.json the batched compute plane,
// BENCH_PR4.json the pluggable partitioning subsystem, BENCH_PR5.json the
// since-deleted pipelined superstep plane, BENCH_PR6.json the
// fault-tolerance subsystem, BENCH_PR7.json the online serving layer.
//
// The identity gate's combo set is selectable (-identity-combos quick|full)
// so CI stays inside its time budget: quick trims the strategy lattice to
// two worker counts; the full set runs everything and stays on
// bench-full.yml.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

type perfBenchResult struct {
	Name           string  `json:"name"`
	Iterations     int     `json:"iterations"`
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	Supersteps     int     `json:"supersteps,omitempty"`
	NsPerSuperstep float64 `json:"ns_per_superstep,omitempty"`
}

type perfIdentity struct {
	ComboSet               string   `json:"combo_set"`
	Combos                 int      `json:"combos"`
	PlacementBitIdentical  bool     `json:"placement_bit_identical"`
	ClassesMatchReference  bool     `json:"classes_match_reference"`
	Failures               []string `json:"failures,omitempty"`
	WorkersTested          []int    `json:"workers_tested"`
	PartitionersTested     []string `json:"partitioners_tested"`
	StrategyCombosPerCount int      `json:"strategy_combos_per_worker_count"`
}

type perfBaseline struct {
	Commit    string             `json:"commit"`
	Note      string             `json:"note"`
	AllocsPer map[string]int64   `json:"allocs_per_op"`
	NsPer     map[string]float64 `json:"ns_per_op"`
	BytesPer  map[string]int64   `json:"bytes_per_op"`
}

type perfReduction struct {
	Benchmark          string  `json:"benchmark"`
	Baseline           string  `json:"baseline"`
	AllocsReductionPct float64 `json:"allocs_reduction_pct"`
	NsReductionPct     float64 `json:"ns_reduction_pct"`
}

// perfCheckpointGate records the PR 6 fault-tolerance overhead comparison:
// the same benchmark run with durable disk checkpoints (CheckpointEvery=4)
// vs checkpoints off, measured in the same run on the same machine. The
// gated row requires disk checkpointing to cost at most 10% ns/op — the
// price of crash-resume must stay in the noise of a production run.
type perfCheckpointGate struct {
	Benchmark   string  `json:"benchmark"`
	OffNs       float64 `json:"off_ns_per_op"`
	DiskNs      float64 `json:"disk_ns_per_op"`
	OverheadPct float64 `json:"overhead_pct"`
	Gated       bool    `json:"gated"`
	Pass        bool    `json:"pass"`
}

// perfPartitionResult records one (benchmark graph, placement strategy)
// cell of the partitioning suite: static placement quality plus the live
// cross-worker traffic and wall-clock of a full inference run.
type perfPartitionResult struct {
	Graph             string  `json:"graph"`
	Strategy          string  `json:"strategy"`
	EdgeCutPct        float64 `json:"edge_cut_pct"`
	ReplicationFactor float64 `json:"replication_factor"`
	NodeImbalance     float64 `json:"node_imbalance"`
	EdgeImbalance     float64 `json:"edge_imbalance"`
	MessagesSent      int64   `json:"messages_sent"`
	BytesSent         int64   `json:"bytes_sent"`
	RemoteMessages    int64   `json:"remote_messages"`
	RemoteBytes       int64   `json:"remote_bytes"`
	NsPerOp           float64 `json:"ns_per_op"`
	NsPerSuperstep    float64 `json:"ns_per_superstep"`
}

// perfPartitionReduction is the headline delta of the partitioning suite:
// the share of cross-worker traffic a locality-aware strategy eliminates vs
// hash on the same graph. The skew-in row is a gate (≥ 25% byte reduction
// required).
type perfPartitionReduction struct {
	Graph                string  `json:"graph"`
	Strategy             string  `json:"strategy"`
	RemoteBytesReduction float64 `json:"remote_bytes_reduction_pct"`
	RemoteMsgsReduction  float64 `json:"remote_msgs_reduction_pct"`
	Gated                bool    `json:"gated"`
	Pass                 bool    `json:"pass"`
}

type perfReport struct {
	PR                  int                      `json:"pr"`
	Description         string                   `json:"description"`
	Generated           string                   `json:"generated"`
	GoVersion           string                   `json:"go_version"`
	GOMAXPROCS          int                      `json:"gomaxprocs"`
	Scale               string                   `json:"scale"`
	Benchmarks          []perfBenchResult        `json:"benchmarks"`
	BaselinePR2         perfBaseline             `json:"baseline_pr2"`
	Reductions          []perfReduction          `json:"reduction_vs_pr2"`
	Checkpointing       []perfBenchResult        `json:"checkpointing"`
	CheckpointGates     []perfCheckpointGate     `json:"gate_checkpoint_overhead"`
	Partitioning        []perfPartitionResult    `json:"partitioning"`
	PartitionReductions []perfPartitionReduction `json:"partitioning_ldg_vs_hash"`
	Serving             []perfServeResult        `json:"serving"`
	ServeGates          []perfServeGate          `json:"gate_serving_slo"`
	Delta               []perfBenchResult        `json:"delta"`
	DeltaGates          []perfDeltaGate          `json:"gate_delta_vs_full"`
	Recovery            []perfBenchResult        `json:"recovery"`
	RecoveryGates       []perfRecoveryGate       `json:"gate_recovery"`
	Identity            perfIdentity             `json:"identity"`
}

// baselinePR2 records the PR 2 HEAD columnar-plane numbers (BENCH_PR2.json)
// these benchmarks are tracked against (same dataset, shapes and options as
// the specs below).
var baselinePR2 = perfBaseline{
	Commit: "16c2fcc",
	Note: "columnar-plane numbers from BENCH_PR2.json, measured at PR 2 HEAD " +
		"on the dev container (1 vCPU Xeon 2.10GHz, go1.24.0) with the " +
		"full-scale 3000-node bench graph",
	AllocsPer: map[string]int64{
		"pregel/partial-gather/skew-in": 10181,
		"pregel/none":                   11199,
		"pregel/partial-gather":         10750,
		"pregel/broadcast":              11202,
		"pregel/shadow-nodes":           11305,
		"pregel/all-strategies":         10926,
	},
	NsPer: map[string]float64{
		"pregel/partial-gather/skew-in": 13609654,
		"pregel/none":                   18693351,
		"pregel/partial-gather":         16598592,
		"pregel/broadcast":              16506255,
		"pregel/shadow-nodes":           19418716,
		"pregel/all-strategies":         16927687,
	},
	BytesPer: map[string]int64{
		"pregel/partial-gather/skew-in": 5689600,
		"pregel/none":                   20416932,
		"pregel/partial-gather":         12662437,
		"pregel/broadcast":              14840525,
		"pregel/shadow-nodes":           21833597,
		"pregel/all-strategies":         14870645,
	},
}

// ---------------------------------------------------------------------------
// Shared suite runner: every suite expresses its measurements as benchSpecs
// and runs them through measure/runSpecs, so the testing.Benchmark wrapping,
// error plumbing, result shaping and printing exist exactly once (PR 2–4
// had grown a copy per suite).

// benchSpec is one named measurement: run executes a single operation.
type benchSpec struct {
	name  string
	steps int // supersteps per op, for the ns/superstep derivation (0 = n/a)
	run   func() error
}

// measure benchmarks one spec and prints the standard result line.
func measure(s benchSpec) (perfBenchResult, error) {
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.run(); err != nil {
				runErr = err
				b.Fatal(err)
			}
		}
	})
	if runErr != nil {
		return perfBenchResult{}, fmt.Errorf("bench %s: %w", s.name, runErr)
	}
	res := perfBenchResult{
		Name:        s.name,
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Supersteps:  s.steps,
	}
	if s.steps > 0 {
		res.NsPerSuperstep = res.NsPerOp / float64(s.steps)
	}
	fmt.Printf("%-52s %12.0f ns/op %10d allocs/op %12d B/op (n=%d)\n",
		res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, r.N)
	return res, nil
}

// runSpecs measures every spec in order, returning the results plus a
// by-name index for gate lookups.
func runSpecs(specs []benchSpec) ([]perfBenchResult, map[string]perfBenchResult, error) {
	var results []perfBenchResult
	byName := map[string]perfBenchResult{}
	for _, s := range specs {
		res, err := measure(s)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
		byName[s.name] = res
	}
	return results, byName, nil
}

// measureBest benchmarks a gated pair of specs in alternating rounds and
// keeps each side's best ns/op. Gated comparisons ride on one shared, noisy
// container: alternation stops a background slowdown from landing entirely
// on one side, and min-of-rounds discards the noise floor symmetrically.
func measureBest(a, b benchSpec, rounds int) (perfBenchResult, perfBenchResult, error) {
	var bestA, bestB perfBenchResult
	for i := 0; i < rounds; i++ {
		ra, err := measure(a)
		if err != nil {
			return bestA, bestB, err
		}
		rb, err := measure(b)
		if err != nil {
			return bestA, bestB, err
		}
		if i == 0 || ra.NsPerOp < bestA.NsPerOp {
			bestA = ra
		}
		if i == 0 || rb.NsPerOp < bestB.NsPerOp {
			bestB = rb
		}
	}
	return bestA, bestB, nil
}

// ---------------------------------------------------------------------------
// Datasets.

func perfDataset(nodes int, skew datagen.Skew) (*gas.Model, *datagen.Dataset) {
	ds := datagen.Generate(datagen.Config{
		Name: "bench", Nodes: nodes, AvgDegree: 8, Skew: skew, Exponent: 1.8,
		FeatureDim: 32, NumClasses: 4, Seed: 1,
	})
	m := gas.NewSAGEModel("bench", gas.TaskSingleLabel, 32, 32, 4, 2, 0, tensor.NewRNG(2))
	return m, ds
}

// msgHeavyDataset builds a message-heavy skew-in power-law benchmark: a
// dense (avg degree 32) power-law graph with hub in-degrees, a 6-layer model
// so per-run setup amortizes over seven supersteps, and a 16-wide state so
// messaging (not the dense kernels) carries the superstep.
func msgHeavyDataset(nodes int) (*gas.Model, *datagen.Dataset) {
	ds := datagen.Generate(datagen.Config{
		Name: "msg-heavy", Nodes: nodes, AvgDegree: 32, Skew: datagen.SkewIn, Exponent: 1.8,
		FeatureDim: 16, NumClasses: 4, Seed: 11,
	})
	m := gas.NewSAGEModel("msg-heavy", gas.TaskSingleLabel, 16, 16, 4, 6, 0, tensor.NewRNG(12))
	return m, ds
}

// checkpointDataset builds the fault-tolerance suite's gate benchmark: a
// skew-in power-law graph at production degree (8) with a 160-wide 6-layer
// SAGE model, so the dense kernels — O(N·D²) per superstep — carry the run
// and checkpoint cost (proportional to state bytes, O((N+E)·D)) is priced
// against real compute. The overhead ratio scales as 1/D, so the hidden
// width matters: 160 sits in the range production GNNs run (128–256) and
// makes the kernels genuinely dominant. The message-heavy bench
// (degree 32, 16-wide state) is the opposite regime — state bytes dwarf
// kernel work — and is kept as an ungated report row so the worst case
// stays visible.
func checkpointDataset(nodes int) (*gas.Model, *datagen.Dataset) {
	ds := datagen.Generate(datagen.Config{
		Name: "ckpt-bench", Nodes: nodes, AvgDegree: 8, Skew: datagen.SkewIn, Exponent: 1.8,
		FeatureDim: 160, NumClasses: 4, Seed: 21,
	})
	m := gas.NewSAGEModel("ckpt-bench", gas.TaskSingleLabel, 160, 160, 4, 6, 0, tensor.NewRNG(22))
	return m, ds
}

// partitionDataset builds the partitioning suite's benchmark graphs:
// homophilous power-law graphs (24 communities, 80% intra-community edges —
// the locality real web/social/payment graphs exhibit) with the requested
// degree skew.
func partitionDataset(nodes int, skew datagen.Skew) (*gas.Model, *datagen.Dataset) {
	ds := datagen.Generate(datagen.Config{
		Name: "part-bench", Nodes: nodes, AvgDegree: 8, Skew: skew, Exponent: 1.8,
		FeatureDim: 32, NumClasses: 24, Homophily: 0.8, Seed: 7,
	})
	m := gas.NewSAGEModel("part-bench", gas.TaskSingleLabel, 32, 32, 24, 2, 0, tensor.NewRNG(8))
	return m, ds
}

// ---------------------------------------------------------------------------
// Suite: compute/message planes (PR 2–3 benchmarks + the PR 2 baseline gate).

// benchTempDir picks the parent for benchmark scratch dirs: tmpfs (/dev/shm)
// when present, else the OS default. See runCheckpointSuite for why.
func benchTempDir() string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		return "/dev/shm"
	}
	return ""
}

func pregelSpec(name string, m *gas.Model, g *graph.Graph, steps int, opts inference.Options) benchSpec {
	return benchSpec{name: name, steps: steps, run: func() error {
		_, err := inference.RunPregel(m, g, opts)
		return err
	}}
}

func runPlaneSuite(rep *perfReport, scale string) (bool, error) {
	nodes := 3000
	if scale == "quick" {
		nodes = 1000
	}
	mIn, dsIn := perfDataset(nodes, datagen.SkewIn)
	mOut, dsOut := perfDataset(nodes, datagen.SkewOut)
	supersteps := mIn.NumLayers() + 1

	// Rows keep the "/batched" suffix they carried beside the deleted
	// per-vertex and boxed planes, so the JSON trajectory stays comparable.
	batched := func(name string, m *gas.Model, ds *datagen.Dataset, opts inference.Options) benchSpec {
		return pregelSpec(name+"/batched", m, ds.Graph, supersteps, opts)
	}
	specs := []benchSpec{
		batched("pregel/partial-gather/skew-in", mIn, dsIn, inference.Options{NumWorkers: 8, PartialGather: true}),
		batched("pregel/none", mOut, dsOut, inference.Options{NumWorkers: 8}),
		batched("pregel/partial-gather", mOut, dsOut, inference.Options{NumWorkers: 8, PartialGather: true}),
		batched("pregel/broadcast", mOut, dsOut, inference.Options{NumWorkers: 8, Broadcast: true}),
		batched("pregel/shadow-nodes", mOut, dsOut, inference.Options{NumWorkers: 8, ShadowNodes: true}),
		batched("pregel/all-strategies", mOut, dsOut, inference.Options{NumWorkers: 8, PartialGather: true, Broadcast: true, ShadowNodes: true}),
	}
	specs = append(specs, benchSpec{name: "mapreduce/partial-gather", run: func() error {
		_, err := inference.RunMapReduce(mIn, dsIn.Graph, inference.Options{NumWorkers: 8, PartialGather: true})
		return err
	}})
	specs = append(specs, benchSpec{name: "reference-forward", run: func() error {
		inference.ReferenceForward(mIn, dsIn.Graph)
		return nil
	}})

	results, _, err := runSpecs(specs)
	if err != nil {
		return false, err
	}
	rep.Benchmarks = results

	// Reductions vs. the recorded PR 2 columnar baseline, for the batched
	// results whose baseline was measured at the same (full) scale.
	if scale == "full" {
		for _, b := range rep.Benchmarks {
			base, ok := strings.CutSuffix(b.Name, "/batched")
			if !ok {
				continue
			}
			ba, okA := baselinePR2.AllocsPer[base]
			bn, okN := baselinePR2.NsPer[base]
			if !okA || !okN {
				continue
			}
			rep.Reductions = append(rep.Reductions, perfReduction{
				Benchmark:          b.Name,
				Baseline:           base + "/columnar (PR 2)",
				AllocsReductionPct: 100 * (1 - float64(b.AllocsPerOp)/float64(ba)),
				NsReductionPct:     100 * (1 - b.NsPerOp/bn),
			})
		}
	}

	// The gate (full scale, where the PR 2 baseline was recorded): the PR 3
	// acceptance thresholds against BENCH_PR2.json's columnar numbers —
	// every end-to-end Pregel benchmark at least 20% faster and with at
	// least 50% fewer allocations.
	pass := true
	if scale == "full" {
		for _, r := range rep.Reductions {
			if r.NsReductionPct < 20 || r.AllocsReductionPct < 50 {
				pass = false
				fmt.Printf("gate %s: reductions vs PR 2 columnar below target (ns %.1f%%, allocs %.1f%%)\n",
					r.Benchmark, r.NsReductionPct, r.AllocsReductionPct)
			}
		}
	}
	return pass, nil
}

// ---------------------------------------------------------------------------
// Suite: fault tolerance (PR 6 checkpoint overhead + chaos observations).

// runCheckpointSuite prices the fault-tolerance subsystem. The gated pair
// runs the kernel-bound bench (see checkpointDataset; 7 supersteps, so
// CheckpointEvery=4 commits one durable mid-run epoch — the superstep-0
// seed stays in memory) with checkpoints off vs durable disk checkpoints,
// and requires the overhead to stay within 10% ns/op: the on-path cost is
// the recycled-slab snapshot copy, with encoding and IO overlapped on the
// persister goroutine. The gated row uses SyncNever, which still delivers
// the guarantee the chaos tests exercise — epochs are rename-atomic and
// survive SIGKILL — while SyncAlways additionally survives OS crash/power
// loss but pays an fsync journal commit per epoch (15–30ms on commodity
// disks, comparable to an entire superstep at bench scale), so it is priced
// as a report-only row instead. Other report-only rows: the in-memory sink,
// the message-heavy bench with disk checkpoints (the
// state-bytes-dominated worst case, where state dwarfs kernel work), and a
// two-crash fault-plan run (checkpoint + rollback + replay cost — replayed
// supersteps legitimately cost wall-clock).
//
// Checkpoint dirs live on tmpfs when the host has one (benchTempDir): with
// SyncNever the epoch writes land in the page cache on any filesystem, but a
// disk-backed temp dir adds background writeback jitter from ext4 flushing
// earlier iterations' epochs mid-benchmark — noise from the device, not the
// checkpoint path the gate is meant to bound.
func runCheckpointSuite(rep *perfReport, scale string) (bool, error) {
	nodes, heavyNodes := 2000, 3000
	if scale == "quick" {
		nodes, heavyNodes = 800, 1200
	}
	m, ds := checkpointDataset(nodes)
	g := ds.Graph
	steps := m.NumLayers() + 1

	dir, err := os.MkdirTemp(benchTempDir(), "ckpt-bench-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	const workers = 8
	offOpts := inference.Options{NumWorkers: workers}
	diskOpts := offOpts
	diskOpts.CheckpointDir = filepath.Join(dir, "gate")
	diskOpts.CheckpointEvery = 4
	diskOpts.CheckpointSync = checkpoint.SyncNever

	off, disk, err := measureBest(
		pregelSpec("pr6/kernel-bound/w8/checkpoint-off", m, g, steps, offOpts),
		pregelSpec("pr6/kernel-bound/w8/checkpoint-disk/every=4", m, g, steps, diskOpts),
		3)
	if err != nil {
		return false, err
	}
	rep.Checkpointing = append(rep.Checkpointing, off, disk)

	// Full scale holds the PR 6 ≤ 10% acceptance threshold. Quick scale —
	// what every PR's CI runs — measures the same HEAD code anywhere between
	// +6% and +13% across repeats on this shared container (page-cache and
	// writeback state move the disk side several points run to run), so its
	// bound backs off to 15%: still a hard tripwire against a checkpoint-path
	// regression, without flaking unrelated PRs on a noisy runner. The full
	// threshold stays enforced by bench-full.yml and the recorded full-scale
	// run.
	limit := 10.0
	if scale == "quick" {
		limit = 15
	}
	gate := perfCheckpointGate{
		Benchmark:   "pr6/kernel-bound/w8",
		OffNs:       off.NsPerOp,
		DiskNs:      disk.NsPerOp,
		OverheadPct: 100 * (disk.NsPerOp/off.NsPerOp - 1),
		Gated:       true,
	}
	gate.Pass = gate.OverheadPct <= limit
	rep.CheckpointGates = append(rep.CheckpointGates, gate)
	fmt.Printf("gate %-40s disk-ckpt %12.0f ns/op vs off %12.0f ns/op (%+.1f%%, need ≤%.0f%%) pass=%v\n",
		gate.Benchmark, gate.DiskNs, gate.OffNs, gate.OverheadPct, limit, gate.Pass)

	syncOpts := diskOpts
	syncOpts.CheckpointDir = filepath.Join(dir, "sync")
	syncOpts.CheckpointSync = checkpoint.SyncAlways
	memOpts := offOpts
	memOpts.CheckpointEvery = 4
	chaosOpts := offOpts
	chaosOpts.CheckpointEvery = 2
	chaosOpts.Faults = &pregel.FaultPlan{Crashes: []pregel.Fault{
		{Superstep: 2, Point: pregel.FaultMidPipeline},
		{Superstep: 5, Point: pregel.FaultAtBarrier},
	}}
	mHeavy, dsHeavy := msgHeavyDataset(heavyNodes)
	heavyOpts := offOpts
	heavyOpts.CheckpointDir = filepath.Join(dir, "heavy")
	heavyOpts.CheckpointEvery = 4
	heavyOpts.CheckpointSync = checkpoint.SyncNever
	extra := []benchSpec{
		pregelSpec("pr6/kernel-bound/w8/checkpoint-disk/sync=always", m, g, steps, syncOpts),
		pregelSpec("pr6/kernel-bound/w8/checkpoint-mem/every=4", m, g, steps, memOpts),
		pregelSpec("pr6/kernel-bound/w8/chaos/2-crashes/every=2", m, g, steps, chaosOpts),
		pregelSpec("pr6/msg-heavy/w8/checkpoint-disk/every=4", mHeavy, dsHeavy.Graph, mHeavy.NumLayers()+1, heavyOpts),
	}
	results, _, err := runSpecs(extra)
	if err != nil {
		return false, err
	}
	rep.Checkpointing = append(rep.Checkpointing, results...)
	return gate.Pass, nil
}

// ---------------------------------------------------------------------------
// Suite: partitioning (PR 4 placement quality + traffic gate).

// runPartitionSuite measures every placement strategy on skew-in, skew-out
// and skew-none benchmark graphs at 8 workers: static placement stats,
// cross-worker traffic of a full inference run, and wall-clock.
func runPartitionSuite(rep *perfReport, scale string) (bool, error) {
	nodes := 4000
	if scale == "quick" {
		nodes = 1500
	}
	const workers = 8
	pass := true
	for _, skew := range []datagen.Skew{datagen.SkewIn, datagen.SkewOut, datagen.SkewNone} {
		m, ds := partitionDataset(nodes, skew)
		g := ds.Graph
		gname := "power-law-" + skew.String()
		remote := map[string]perfPartitionResult{}
		for _, strat := range graph.Strategies() {
			part := strat.Partition(g, workers)
			st := graph.ComputeStats(part, g)
			opts := inference.Options{NumWorkers: workers, Partitioner: strat}
			res, err := inference.RunPregel(m, g, opts)
			if err != nil {
				// Mark the gate failed but keep measuring the other cells so
				// the JSON report still lands on disk for diagnosis.
				fmt.Printf("partition %s/%s: %v\n", gname, strat.Name(), err)
				pass = false
				continue
			}
			bench, err := measure(pregelSpec("partition/"+gname+"/"+strat.Name(), m, g, res.Stats.Supersteps, opts))
			if err != nil {
				return false, err
			}
			cell := perfPartitionResult{
				Graph:             gname,
				Strategy:          strat.Name(),
				EdgeCutPct:        100 * st.EdgeCutFrac,
				ReplicationFactor: st.ReplicationFactor,
				NodeImbalance:     st.NodeImbalance,
				EdgeImbalance:     st.EdgeImbalance,
				MessagesSent:      res.Stats.MessagesSent,
				BytesSent:         res.Stats.BytesSent,
				RemoteMessages:    res.Stats.RemoteMessages,
				RemoteBytes:       res.Stats.RemoteBytes,
				NsPerOp:           bench.NsPerOp,
				NsPerSuperstep:    bench.NsPerSuperstep,
			}
			rep.Partitioning = append(rep.Partitioning, cell)
			remote[strat.Name()] = cell
			fmt.Printf("partition %-18s %-7s cut %5.1f%% repl %.2f imb %.2f/%.2f remote %8.2e B\n",
				gname, strat.Name(), cell.EdgeCutPct, cell.ReplicationFactor,
				cell.NodeImbalance, cell.EdgeImbalance, float64(cell.RemoteBytes))
		}
		hash, ok := remote["hash"]
		if !ok || hash.RemoteBytes == 0 {
			continue
		}
		for _, name := range []string{"ldg", "fennel"} {
			cell, ok := remote[name]
			if !ok {
				continue
			}
			red := perfPartitionReduction{
				Graph:                gname,
				Strategy:             name,
				RemoteBytesReduction: 100 * (1 - float64(cell.RemoteBytes)/float64(hash.RemoteBytes)),
				RemoteMsgsReduction:  100 * (1 - float64(cell.RemoteMessages)/float64(hash.RemoteMessages)),
				Gated:                name == "ldg" && skew == datagen.SkewIn,
			}
			red.Pass = !red.Gated || red.RemoteBytesReduction >= 25
			if !red.Pass {
				pass = false
			}
			rep.PartitionReductions = append(rep.PartitionReductions, red)
			fmt.Printf("partition %-18s %-7s vs hash: remote bytes −%.1f%%, remote msgs −%.1f%% (gated=%v pass=%v)\n",
				red.Graph, red.Strategy, red.RemoteBytesReduction, red.RemoteMsgsReduction, red.Gated, red.Pass)
		}
	}
	return pass, nil
}

// ---------------------------------------------------------------------------
// Identity gate.

// comboSet selects how much of the identity matrix a run verifies; see
// comboSetByName.
type comboSet struct {
	name    string
	workers []int
}

// comboSetByName resolves the -identity-combos flag: "quick" trims the
// legacy strategy lattice to two worker counts (64 combos) so PR CI stays
// inside its time budget; "full" keeps the PR 4 128-combo lattice and runs
// on bench-full.yml.
func comboSetByName(name string) (comboSet, error) {
	switch name {
	case "quick":
		return comboSet{name: "quick", workers: []int{1, 8}}, nil
	case "full":
		return comboSet{name: "full", workers: []int{1, 4, 8, 16}}, nil
	default:
		return comboSet{}, fmt.Errorf("unknown identity combo set %q; want quick or full", name)
	}
}

// verifyIdentity re-checks the acceptance invariants outside the test suite:
// for every strategy combination, worker count and placement strategy, the
// predicted classes are byte-identical to the reference forward; for the
// placement-invariant configs (everything except partial-gather, whose
// sender-side combining regroups float sums) logits are bit-identical across
// ALL worker counts and placements to one global reference.
func verifyIdentity(set comboSet) perfIdentity {
	m, ds := perfDataset(400, datagen.SkewOut)
	g := ds.Graph
	want := tensor.ArgmaxRows(inference.ReferenceForward(m, g))
	partitioners := []graph.Strategy{graph.Hash{}, graph.LDG{}}
	id := perfIdentity{
		ComboSet:              set.name,
		PlacementBitIdentical: true,
		ClassesMatchReference: true,
		WorkersTested:         set.workers,
	}
	for _, p := range partitioners {
		id.PartitionersTested = append(id.PartitionersTested, p.Name())
	}
	// refs[key] is the global bit-identity reference for one (bc, sn)
	// strategy pair across every worker count, placement and parallel
	// setting. Two exceptions scope the claim: pg=true combos are
	// only compared within a combo (sender-side combining regroups float
	// sums per placement), and sn=true combos key on the worker count too —
	// the shadow rewrite splits hubs at the λ·edges/workers threshold, so
	// different worker counts legitimately run different graphs.
	refs := map[string]*tensor.Matrix{}
	for _, w := range set.workers {
		combos := 0
		for _, strat := range partitioners {
			for _, pg := range []bool{false, true} {
				for _, bc := range []bool{false, true} {
					for _, sn := range []bool{false, true} {
						for _, par := range []bool{false, true} {
							opts := inference.Options{
								NumWorkers: w, Partitioner: strat,
								PartialGather: pg, Broadcast: bc, ShadowNodes: sn, Parallel: par,
							}
							name := fmt.Sprintf("w%d/%s/pg=%v/bc=%v/sn=%v/par=%v", w, strat.Name(), pg, bc, sn, par)
							res, err := inference.RunPregel(m, g, opts)
							if err != nil {
								id.fail(name + ": " + err.Error())
								continue
							}
							if !pg {
								key := fmt.Sprintf("bc=%v/sn=%v", bc, sn)
								if sn {
									key = fmt.Sprintf("w%d/%s", w, key)
								}
								if ref, ok := refs[key]; !ok {
									refs[key] = res.Logits
								} else if !res.Logits.Equal(ref) {
									id.PlacementBitIdentical = false
									id.fail(name + ": logits diverge from the cross-placement reference")
								}
							}
							for v, c := range res.Classes {
								if c != want[v] {
									id.ClassesMatchReference = false
									id.fail(fmt.Sprintf("%s: node %d class %d != reference %d", name, v, c, want[v]))
									break
								}
							}
							combos++
							id.Combos++
						}
					}
				}
			}
		}
		id.StrategyCombosPerCount = combos
	}

	return id
}

func (id *perfIdentity) fail(msg string) {
	if len(id.Failures) < 16 {
		id.Failures = append(id.Failures, msg)
	}
}

// ---------------------------------------------------------------------------
// Top-level runner.

// runPerf executes every suite and writes the JSON report to path.
// Baselines were recorded at full scale; the quick preset shrinks the
// graphs (for CI smoke) and is labelled accordingly. The same-run gates
// (checkpoint overhead, serving, delta, recovery) run at every scale
// because they compare within one run on one machine.
func runPerf(path, scale, combos string) error {
	if combos == "" {
		combos = "full"
		if scale == "quick" {
			combos = "quick"
		}
	}
	set, err := comboSetByName(combos)
	if err != nil {
		return err
	}

	report := perfReport{
		PR: 10,
		Description: "Crash-durable serving: mutation WAL + persisted session slabs make the " +
			"mutate→refresh pipeline survive SIGKILL with zero acknowledged batches lost; warm " +
			"restart gated at 3x faster than cold re-prime and WAL appends at ≤10% added mutate " +
			"latency at sync=never; plus the plane, checkpointing, partitioning, " +
			"serving, delta and identity suites of PR 2-8",
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Scale:       scale,
		BaselinePR2: baselinePR2,
	}

	// The ordered suite table: each runs independently, records into the
	// report, and contributes one gate verdict plus a failure message used
	// after the JSON is written.
	suites := []struct {
		name string
		fail string
		run  func() (bool, error)
	}{
		{
			name: "planes",
			fail: "batched plane reductions vs the recorded PR 2 columnar baseline below target (ns ≥20%, allocs ≥50%; full scale only)",
			run:  func() (bool, error) { return runPlaneSuite(&report, scale) },
		},
		{
			name: "checkpointing",
			fail: "durable disk-checkpoint overhead above the gated bound vs the same-run checkpoint-off bench (≤10% at full scale, ≤15% at quick)",
			run:  func() (bool, error) { return runCheckpointSuite(&report, scale) },
		},
		{
			name: "partitioning",
			fail: "LDG remote-byte reduction vs hash below 25% on skew-in",
			run:  func() (bool, error) { return runPartitionSuite(&report, scale) },
		},
		{
			name: "serving",
			fail: "serving SLO gates failed (nominal load must shed nothing with p99 within the max-latency window; 2x server capacity must shed)",
			run:  func() (bool, error) { return runServeSuite(&report, scale) },
		},
		{
			name: "delta",
			fail: "incremental delta refresh at a 1% mutation rate under 5x faster than the same-run full pass on the skew-in bench, or not bit-identical to it",
			run:  func() (bool, error) { return runDeltaSuite(&report, scale) },
		},
		{
			name: "recovery",
			fail: "recovery gates failed (warm restart must be ≥3x faster than cold re-prime; WAL appends must add ≤10% mutate latency at sync=never, ≤15% at quick)",
			run:  func() (bool, error) { return runRecoverySuite(&report, scale) },
		},
		{
			name: "identity",
			fail: "identity checks failed",
			run: func() (bool, error) {
				report.Identity = verifyIdentity(set)
				id := report.Identity
				fmt.Printf("identity[%s]: %d combos, placement=%v classes=%v\n",
					id.ComboSet, id.Combos, id.PlacementBitIdentical, id.ClassesMatchReference)
				ok := id.PlacementBitIdentical && id.ClassesMatchReference && len(id.Failures) == 0
				return ok, nil
			},
		},
	}

	var failed []string
	for _, s := range suites {
		pass, err := s.run()
		if err != nil {
			return fmt.Errorf("suite %s: %w", s.name, err)
		}
		if !pass {
			failed = append(failed, s.fail)
		}
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	// Gates are gates, not observations: fail the run (and therefore the CI
	// step) after the JSON is on disk for inspection.
	if len(failed) > 0 {
		return fmt.Errorf("%s; see %s", strings.Join(failed, "; "), path)
	}
	return nil
}
