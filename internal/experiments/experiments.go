// Package experiments regenerates every table and figure of the paper's
// evaluation section at laptop scale. Each experiment is a pure function of
// a Scale preset, returning structured results plus a formatted text block;
// cmd/bench prints them and EXPERIMENTS.md records paper-vs-measured
// (regenerate it with `go run ./cmd/bench` from the repository root).
//
// Absolute numbers cannot match the paper (its substrate was a production
// cluster, ours is a simulated one — see DESIGN.md); every experiment
// therefore states the *shape* property the paper claims, and the package's
// tests assert those shapes.
package experiments

import (
	"fmt"
	"strings"

	"inferturbo/internal/cluster"
	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/tensor"
	"inferturbo/internal/train"
)

// Scale selects experiment sizes. Quick is meant for unit tests; Full for
// the benchmark harness.
type Scale struct {
	Name string
	// Dataset sizes (node counts).
	PPINodes      int
	ProductsNodes int
	MAGNodes      int
	PowerLawNodes int
	// Fig 8 scalability sweep sizes.
	ScaleSweep []int
	// Training effort for Table II.
	Epochs int
	// Consistency runs for Fig 7.
	Runs    int
	Fanouts []int
	// Workers used by our system's runs.
	Workers int
}

// Quick is the test-sized preset.
func Quick() Scale {
	return Scale{
		Name: "quick", PPINodes: 800, ProductsNodes: 800, MAGNodes: 1000,
		PowerLawNodes: 3000, ScaleSweep: []int{500, 1500, 4500},
		Epochs: 6, Runs: 4, Fanouts: []int{2, 5, 20}, Workers: 8,
	}
}

// Full is the benchmark-sized preset.
func Full() Scale {
	return Scale{
		Name: "full", PPINodes: 4000, ProductsNodes: 6000, MAGNodes: 6000,
		PowerLawNodes: 30000, ScaleSweep: []int{3000, 10000, 30000},
		Epochs: 12, Runs: 10, Fanouts: []int{10, 50, 100, 1000}, Workers: 20,
	}
}

// Table renders aligned rows of strings.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Notes   []string
	PaperTL string // one-line statement of the paper's takeaway (the shape)
}

// String renders the table as fixed-width text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.PaperTL != "" {
		fmt.Fprintf(&b, "paper shape: %s\n", t.PaperTL)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ourRun wraps an InferTurbo run priced on its cluster.
type ourRun struct {
	res    *inference.Result
	report *cluster.Report
}

// runPregel executes model over g on the Pregel driver and prices it.
func runPregel(m *gas.Model, g *graph.Graph, opts inference.Options) (*ourRun, error) {
	res, err := inference.RunPregel(m, g, opts)
	if err != nil {
		return nil, err
	}
	return price(res, cluster.PregelCluster(), opts.NumWorkers)
}

// runMapReduce executes model over g on the MapReduce driver with the given
// reduce-task count and prices it.
func runMapReduce(m *gas.Model, g *graph.Graph, workers int) (*ourRun, error) {
	res, err := inference.RunMapReduce(m, g, workers)
	if err != nil {
		return nil, err
	}
	return price(res, cluster.MapReduceCluster(), workers)
}

// price prices a run on spec. The run used workers logical partitions
// standing in for spec.Workers instances, so the pricing spec is scaled down
// to the partition count while keeping per-instance rates.
func price(res *inference.Result, spec cluster.Spec, workers int) (*ourRun, error) {
	spec.Workers = workers
	rep, err := cluster.Simulate(spec, res.Phases)
	if err != nil {
		return nil, err
	}
	return &ourRun{res: res, report: rep}, nil
}

// trainModel trains the given architecture for the scale's epoch budget.
func trainModel(arch string, ds *datagen.Dataset, epochs int, seed int64) (*gas.Model, error) {
	g := ds.Graph
	task := gas.TaskSingleLabel
	if g.MultiLabels != nil {
		task = gas.TaskMultiLabel
	}
	var m *gas.Model
	switch arch {
	case "sage":
		m = gas.NewSAGEModel("sage-"+ds.Config.Name, task, g.FeatureDim(), 32, g.NumClasses, 2, 0, tensor.NewRNG(seed))
	case "gat":
		m = gas.NewGATModel("gat-"+ds.Config.Name, task, g.FeatureDim(), 8, 2, g.NumClasses, 2, tensor.NewRNG(seed))
	default:
		return nil, fmt.Errorf("experiments: unknown arch %q", arch)
	}
	cfg := train.Config{
		Epochs: epochs, BatchSize: 64, LR: 0.01,
		Fanouts: []int{10, 10}, Seed: seed + 1,
	}
	if task == gas.TaskMultiLabel {
		// Counter the sparse positives of the many-class PPI-like task.
		cfg.PosWeight = 20
		cfg.LR = 0.02
	}
	_, err := train.Train(m, g, cfg)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func fmtInt(v int64) string { return fmt.Sprintf("%d", v) }

func fmtBytes(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}
