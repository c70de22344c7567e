// Package inferturbo is the public API of this InferTurbo reproduction
// (Zhang et al., "InferTurbo: A Scalable System for Boosting Full-graph
// Inference of Graph Neural Network over Huge Graphs", ICDE 2023).
//
// The library trains GNN models mini-batch over sampled k-hop neighborhoods
// and runs them full-graph, sampling-free, on a Pregel-like graph processing
// engine, with the paper's three skew strategies (partial-gather, broadcast,
// shadow-nodes) and pluggable, locality-aware vertex placement
// (InferOptions.Partitioner: hash, degree-balanced, streaming LDG, Fennel).
// The engine runs strict BSP: each superstep gathers, applies and scatters,
// and one barrier delivers its messages before the next begins.
// Predictions are deterministic: identical across runs, worker counts,
// vertex placements and strategy combinations — including the
// goroutine-parallel compute kernels, which are bit-identical at any
// KernelTuning ("parallel over owned row blocks, serial within a
// reduction"; see DESIGN.md).
//
// A minimal end-to-end flow:
//
//	ds := inferturbo.PowerLaw(100_000, inferturbo.SkewIn, 1)
//	model := inferturbo.NewSAGEModel("demo", inferturbo.TaskSingleLabel,
//	    ds.Graph.FeatureDim(), 64, ds.Graph.NumClasses, 2, 0, inferturbo.NewRNG(7))
//	_, err := inferturbo.Train(model, ds.Graph, inferturbo.TrainConfig{Epochs: 10})
//	...
//	res, err := inferturbo.InferPregel(model, ds.Graph, inferturbo.InferOptions{
//	    NumWorkers: 100, PartialGather: true, Broadcast: true,
//	})
//
// See examples/ for runnable scenarios, cmd/bench for the harness that
// regenerates every table and figure of the paper's evaluation (EXPERIMENTS.md
// records one full-preset run; `go run ./cmd/bench` regenerates it), and
// benchmark/ for the end-to-end and per-layer cost measurements.
package inferturbo

import (
	"io"

	"inferturbo/internal/baseline"
	"inferturbo/internal/cluster"
	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/serve"
	"inferturbo/internal/tensor"
	"inferturbo/internal/train"
)

// Core data types.
type (
	// Graph is a directed attributed graph with CSR/CSC adjacency.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// Matrix is a dense row-major float32 matrix.
	Matrix = tensor.Matrix
	// RNG is a deterministic random source.
	RNG = tensor.RNG
	// KernelTuning configures the deterministic parallel tensor kernels
	// (worker goroutines, MatMul cache block, serial-fallback threshold).
	// Every setting produces bit-identical results; see DESIGN.md.
	KernelTuning = tensor.Tuning
	// Dataset is a generated graph plus its generation config.
	Dataset = datagen.Dataset
	// DatasetConfig parameterizes synthetic dataset generation.
	DatasetConfig = datagen.Config
	// Skew selects which degree side of a synthetic graph is power-law.
	Skew = datagen.Skew
)

// Model types.
type (
	// Model is a stack of GAS convolution layers plus a prediction head.
	Model = gas.Model
	// Conv is one GNN layer in the GAS abstraction.
	Conv = gas.Conv
	// Task selects the prediction head (single- vs multi-label).
	Task = gas.Task
	// SAGEConfig parameterizes a GraphSAGE layer.
	SAGEConfig = gas.SAGEConfig
	// GATConfig parameterizes a GAT layer.
	GATConfig = gas.GATConfig
	// GINConfig parameterizes a GIN layer.
	GINConfig = gas.GINConfig
	// GCNConfig parameterizes a GCN layer.
	GCNConfig = gas.GCNConfig
)

// Execution types.
type (
	// InferOptions configures full-graph inference (workers + strategies).
	InferOptions = inference.Options
	// InferResult is a full-graph inference outcome with cost phases.
	InferResult = inference.Result
	// TrainConfig tunes mini-batch training.
	TrainConfig = train.Config
	// TrainHistory is the per-epoch training trajectory.
	TrainHistory = train.History
	// BaselineOptions configures the traditional k-hop pipeline.
	BaselineOptions = baseline.Options
	// BaselineResult is a traditional-pipeline outcome.
	BaselineResult = baseline.Result
	// ClusterSpec describes a simulated worker pool for cost pricing.
	ClusterSpec = cluster.Spec
	// ClusterReport prices a run's phases on a ClusterSpec.
	ClusterReport = cluster.Report
)

// Serving types (the online inference service; see cmd/serve for the
// standalone binary and DESIGN.md for the serving architecture).
type (
	// Server is a long-lived inference service: a resident full-graph
	// prediction store refreshed by background passes, plus micro-batched
	// k-hop queries for what-if overrides and cold-start nodes.
	Server = serve.Server
	// ServeConfig wires a Server: model, graph, refresh options, the batch
	// root cap and admission-control knobs. Queries batch naturally — one
	// executor per core, no batching timer.
	ServeConfig = serve.Config
	// ServeStats is the JSON shape of GET /v1/stats.
	ServeStats = serve.Stats
	// ServeAnswer is one node's prediction in a serving response.
	ServeAnswer = serve.Answer
	// QueryRequest is the JSON body of POST /v1/query.
	QueryRequest = serve.QueryRequest
	// QueryResponse is the JSON body of a serving query answer.
	QueryResponse = serve.QueryResponse
	// ColdStartRequest describes a node not yet in the graph.
	ColdStartRequest = serve.ColdStartRequest
)

// NewServer builds an online inference server. Call Start to run the
// initial full-graph pass and begin serving; Handler returns its HTTP API.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// Partitioning types.
type (
	// Partitioner is a concrete vertex→worker placement (dense lookup
	// tables or the arithmetic hash).
	Partitioner = graph.Partitioner
	// PartitionStrategy builds a Partitioner for a concrete graph; set
	// InferOptions.Partitioner to choose one (nil = hash).
	PartitionStrategy = graph.Strategy
	// PartitionStats summarizes a placement: per-worker load, edge cut,
	// replication factor, load imbalance.
	PartitionStats = graph.PartitionStats
)

// Built-in placement strategies. Placement trades cross-worker traffic
// only; predictions are bit-identical under every strategy (under
// PartialGather, whose combiner folds per sending worker, cross-placement
// agreement is tolerance-level, like agreement with ReferenceForward).
func PartitionHash() PartitionStrategy           { return graph.Hash{} }
func PartitionDegreeBalanced() PartitionStrategy { return graph.DegreeBalanced{} }
func PartitionLDG() PartitionStrategy            { return graph.LDG{} }
func PartitionFennel() PartitionStrategy         { return graph.Fennel{} }

// PartitionStrategyByName resolves "hash" | "degree" | "ldg" | "fennel".
func PartitionStrategyByName(name string) (PartitionStrategy, error) {
	return graph.StrategyByName(name)
}

// ComputePartitionStats measures a placement's quality over g.
func ComputePartitionStats(p Partitioner, g *Graph) PartitionStats {
	return graph.ComputeStats(p, g)
}

// Re-exported constants.
const (
	TaskSingleLabel = gas.TaskSingleLabel
	TaskMultiLabel  = gas.TaskMultiLabel

	SkewNone = datagen.SkewNone
	SkewIn   = datagen.SkewIn
	SkewOut  = datagen.SkewOut
)

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed int64) *RNG { return tensor.NewRNG(seed) }

// SetKernelTuning installs a process-wide tuning for the parallel compute
// kernels and returns the previous value. The zero value selects defaults
// (GOMAXPROCS workers). Per-run overrides go through InferOptions.Tuning.
// Tuning trades wall-clock only — predictions are bit-identical at any
// setting, preserving the paper's consistency guarantee.
func SetKernelTuning(t KernelTuning) KernelTuning { return tensor.SetTuning(t) }

// NewGraphBuilder creates a builder for a graph with numNodes nodes.
func NewGraphBuilder(numNodes int) *GraphBuilder { return graph.NewBuilder(numNodes) }

// NewSAGEModel builds a hops-deep GraphSAGE model (mean aggregation, ReLU
// hidden layers, linear logits).
func NewSAGEModel(name string, task Task, inDim, hidden, numClasses, hops, edgeDim int, rng *RNG) *Model {
	return gas.NewSAGEModel(name, task, inDim, hidden, numClasses, hops, edgeDim, rng)
}

// NewGATModel builds a hops-deep GAT model (concat heads in hidden layers,
// averaged heads at the output).
func NewGATModel(name string, task Task, inDim, headDim, heads, numClasses, hops int, rng *RNG) *Model {
	return gas.NewGATModel(name, task, inDim, headDim, heads, numClasses, hops, rng)
}

// NewGINModel builds a hops-deep Graph Isomorphism Network model (sum
// aggregation with an MLP update).
func NewGINModel(name string, task Task, inDim, hidden, numClasses, hops int, rng *RNG) *Model {
	return gas.NewGINModel(name, task, inDim, hidden, numClasses, hops, rng)
}

// NewGCNModel builds a hops-deep GCN model with symmetric degree
// normalization.
func NewGCNModel(name string, task Task, inDim, hidden, numClasses, hops int, rng *RNG) *Model {
	return gas.NewGCNModel(name, task, inDim, hidden, numClasses, hops, rng)
}

// Train optimizes model on g's train-masked nodes over sampled k-hop
// mini-batches.
func Train(m *Model, g *Graph, cfg TrainConfig) (*TrainHistory, error) {
	return train.Train(m, g, cfg)
}

// Evaluate scores model on g's masked nodes (accuracy or micro-F1 per task).
func Evaluate(m *Model, g *Graph, mask []bool) float64 {
	return train.Evaluate(m, g, mask)
}

// SaveModel writes a signature file: weights plus the GAS annotations the
// inference drivers read to enable strategies.
func SaveModel(m *Model, w io.Writer) error { return gas.Save(m, w) }

// LoadModel reconstructs a model from a signature file.
func LoadModel(r io.Reader) (*Model, error) { return gas.Load(r) }

// SaveModelFile and LoadModelFile are path-based conveniences.
func SaveModelFile(m *Model, path string) error { return gas.SaveFile(m, path) }

// LoadModelFile reads a signature file from path.
func LoadModelFile(path string) (*Model, error) { return gas.LoadFile(path) }

// SaveGraphFile writes g to path; LoadGraphFile reads it back.
func SaveGraphFile(g *Graph, path string) error { return g.SaveFile(path) }

// LoadGraphFile reads a serialized graph from path.
func LoadGraphFile(path string) (*Graph, error) { return graph.LoadFile(path) }

// InferPregel runs full-graph inference on the Pregel-like engine.
func InferPregel(m *Model, g *Graph, opts InferOptions) (*InferResult, error) {
	return inference.RunPregel(m, g, opts)
}

// ReferenceForward computes the exact full-graph logits in-process — the
// oracle distributed inference is verified against.
func ReferenceForward(m *Model, g *Graph) *Matrix {
	return inference.ReferenceForward(m, g)
}

// RunBaseline executes the traditional k-hop (optionally sampled) pipeline.
func RunBaseline(m *Model, g *Graph, opts BaselineOptions) (*BaselineResult, error) {
	return baseline.Run(m, g, opts)
}

// Synthetic dataset generators (laptop-scale stand-ins for the paper's
// datasets; see DESIGN.md for the substitution rationale).

// Generate builds a dataset from an explicit config.
func Generate(cfg DatasetConfig) *Dataset { return datagen.Generate(cfg) }

// PPILike mirrors PPI: multi-label, 50 features, 121 classes.
func PPILike(nodes int, seed int64) *Dataset { return datagen.PPILike(nodes, seed) }

// ProductsLike mirrors OGB-Products: 100 features, 47 classes.
func ProductsLike(nodes int, seed int64) *Dataset { return datagen.ProductsLike(nodes, seed) }

// MAGLike mirrors the paper's MAG240M subset: 153 classes.
func MAGLike(nodes, featureDim int, seed int64) *Dataset {
	return datagen.MAGLike(nodes, featureDim, seed)
}

// PowerLaw mirrors the paper's synthetic power-law family.
func PowerLaw(nodes int, skew Skew, seed int64) *Dataset {
	return datagen.PowerLaw(nodes, skew, seed)
}

// SimulateCluster prices a run's phases on a cluster spec, returning wall
// time and cpu·minutes (and an OOM error when a worker exceeds memory). The
// spec's worker count is scaled down to the run's partition count while
// keeping per-instance rates, so a laptop-scale run prices consistently.
func SimulateCluster(spec ClusterSpec, res *InferResult) (*ClusterReport, error) {
	if len(res.Phases) > 0 {
		spec.Workers = len(res.Phases[0].Workers)
	}
	return cluster.Simulate(spec, res.Phases)
}

// Paper cluster presets.
var (
	PregelCluster   = cluster.PregelCluster
	BaselineCluster = cluster.BaselineCluster
)
