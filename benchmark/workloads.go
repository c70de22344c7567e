package main

import (
	"fmt"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/inference"
	"inferturbo/internal/tensor"
)

// numClasses is shared by every workload: the logits width is not what any
// of them varies.
const numClasses = 8

// workload is one graph shape + model + pass options. Only the fields listed
// here are set on inference.Options / serve.Config; everything else stays at
// its zero value so the benchmark measures the shipped defaults.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (mirrored in
	// BENCHMARK.json and the README).
	Why string
	// Data is the generator config; Seed is filled per run.
	Data datagen.Config
	// Model builds the workload's 2-layer model from the run's seed.
	Model func(rng *tensor.RNG) *gas.Model
	// Pass is the batch pass configuration (the workload's skew strategy).
	Pass inference.Options
	// WantRefresh is the kind every write-phase refresh must take.
	WantRefresh inference.RefreshKind
	// HubRewrite makes each write round also rewrite the features of the
	// top out-degree hubs, so the round's flood crosses DeltaCutover.
	HubRewrite bool
	// Fired reports whether the workload's strategy did anything in a pass.
	Fired func(st inference.Stats) (string, bool)
}

// refreshOptions is the server's resident-pass configuration on every
// workload (the Session rejects the skew strategies, so none is set).
var refreshOptions = inference.Options{NumWorkers: 8, Parallel: true, CheckpointSync: checkpoint.SyncNever}

var workloads = []workload{
	{
		Name: "hub-in",
		Why:  "in-degree power law, SAGE-mean with PartialGather (the paper's hub-receiver case): message plane, combiner and segment gather dominate, kernels are small; refreshes are delta",
		Data: datagen.Config{Name: "hub-in", Nodes: 30000, AvgDegree: 10, Skew: datagen.SkewIn, Exponent: 1.8,
			MaxDegree: 1000, FeatureDim: 64, NumClasses: numClasses},
		Model: func(rng *tensor.RNG) *gas.Model {
			return gas.NewSAGEModel("hub-in", gas.TaskSingleLabel, 64, 64, numClasses, 2, 0, rng)
		},
		Pass:        inference.Options{NumWorkers: 8, Parallel: true, PartialGather: true},
		WantRefresh: inference.RefreshDelta,
		Fired: func(st inference.Stats) (string, bool) {
			return fmt.Sprintf("CombinedAway=%d", st.CombinedAway), st.CombinedAway > 0
		},
	},
	{
		Name: "hub-out",
		Why:  "out-degree power law, GAT with Broadcast: scatter-side dedup, a union gather that cannot be combined, attention per edge; hub rewrites flood past DeltaCutover so refreshes are full",
		Data: datagen.Config{Name: "hub-out", Nodes: 10000, AvgDegree: 10, Skew: datagen.SkewOut, Exponent: 1.8,
			MaxDegree: 1000, FeatureDim: 64, NumClasses: numClasses},
		Model: func(rng *tensor.RNG) *gas.Model {
			return gas.NewGATModel("hub-out", gas.TaskSingleLabel, 64, 16, 4, numClasses, 2, rng)
		},
		Pass:        inference.Options{NumWorkers: 8, Parallel: true, Broadcast: true, HubThreshold: 256},
		WantRefresh: inference.RefreshFull,
		HubRewrite:  true,
		Fired: func(st inference.Stats) (string, bool) {
			return fmt.Sprintf("BroadcastHubs=%d", st.BroadcastHubs), st.BroadcastHubs > 0
		},
	},
	{
		Name: "wide",
		Why:  "uniform degrees, 256-wide GCN: tensor.MatMul and gas apply dominate and the message plane does little; wide rows make JSON decode the bulk of /v1/mutate; refreshes are delta",
		Data: datagen.Config{Name: "wide", Nodes: 8000, AvgDegree: 5, Skew: datagen.SkewNone,
			FeatureDim: 256, NumClasses: numClasses},
		Model: func(rng *tensor.RNG) *gas.Model {
			return gas.NewGCNModel("wide", gas.TaskSingleLabel, 256, 256, numClasses, 2, rng)
		},
		Pass:        inference.Options{NumWorkers: 8, Parallel: true},
		WantRefresh: inference.RefreshDelta,
		Fired:       func(inference.Stats) (string, bool) { return "no strategy", true },
	},
}

// at returns the workload sized for sc: node count, degree cap and hub
// threshold shrink together, so the strategy still fires on a smoke graph.
func (w workload) at(sc scale) workload {
	w.Data.Nodes /= sc.NodesDiv
	w.Data.MaxDegree /= sc.NodesDiv // 0 (the generator's default cap) stays 0
	w.Pass.HubThreshold /= sc.NodesDiv
	return w
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes a run. Phase lengths are a share of the lap's time budget with
// a floor on the operation count, so a slow host still pools enough samples
// and a fast one measures for the whole of -seconds.
type scale struct {
	Name string
	// NodesDiv divides every workload's node count.
	NodesDiv int
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int
	// WarmPasses and WarmQueries are untimed and inside setup_s.
	WarmPasses, WarmQueries int
	// Per-lap floors: the least a phase does even when its share of the lap
	// has already run out. On the reference host the shares, not the floors,
	// decide the counts.
	// Write, mixed and restart always do at least one round.
	Passes, Queries, Query16, SatSlices int
	// SatSlice is the throughput estimator's window: query_sat_rps is the
	// median of the per-slice rates.
	SatSlice time.Duration
	// RoundBatches is the /v1/mutate batches per write round; StagedAtRestart
	// the un-refreshed batches a restart must replay.
	RoundBatches, StagedAtRestart int
	// Probe repetitions for the per-layer run.
	ProbeReps int
}

var (
	scaleFull = scale{
		Name: "full", NodesDiv: 1, Setups: 3, WarmPasses: 2, WarmQueries: 100,
		Passes: 4, Queries: 100, Query16: 30, SatSlices: 15,
		SatSlice: 100 * time.Millisecond, RoundBatches: 32, StagedAtRestart: 8, ProbeReps: 5,
	}
	scaleSmoke = scale{
		Name: "smoke", NodesDiv: 10, Setups: 1, WarmPasses: 1, WarmQueries: 4,
		Passes: 1, Queries: 5, Query16: 3, SatSlices: 2,
		SatSlice: 25 * time.Millisecond, RoundBatches: 4, StagedAtRestart: 2, ProbeReps: 1,
	}
)

func scaleByName(name string) (scale, bool) {
	switch name {
	case "full":
		return scaleFull, true
	case "smoke":
		return scaleSmoke, true
	}
	return scale{}, false
}

// lapShare is each serving phase's share of a lap's time budget; the pass
// phase closes the lap and takes what is left (about a quarter).
var lapShare = struct{ Query, Query16, Sat, Write, Mixed, Restart float64 }{
	Query: 0.08, Query16: 0.10, Sat: 0.15, Write: 0.17, Mixed: 0.10, Restart: 0.12,
}

const laps = 3
