package experiments

import (
	"errors"
	"fmt"

	"inferturbo/internal/baseline"
	"inferturbo/internal/cluster"
	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/nn"
	"inferturbo/internal/tensor"
	"inferturbo/internal/train"
)

// Table1 reproduces the dataset summary (paper Table I) over the synthetic
// stand-ins at this scale.
func Table1(s Scale) (*Table, []*datagen.Dataset) {
	sets := []*datagen.Dataset{
		datagen.PPILike(s.PPINodes, 1),
		datagen.ProductsLike(s.ProductsNodes, 2),
		datagen.MAGLike(s.MAGNodes, 64, 3),
		datagen.PowerLaw(s.PowerLawNodes, datagen.SkewIn, 4),
	}
	t := &Table{
		Title:   "Table I — datasets (synthetic stand-ins)",
		Header:  []string{"dataset", "#node", "#edge", "#feat", "#class"},
		PaperTL: "PPI 57k/819k/50/121 · Products 2.4M/62M/100/47 · MAG240M 1.2e8/2.6e9/768/153 · Power-Law 1e10/1e11/200/2",
	}
	for _, ds := range sets {
		g := ds.Graph
		classes := g.NumClasses
		t.Rows = append(t.Rows, []string{
			ds.Config.Name, fmtInt(int64(g.NumNodes)), fmtInt(int64(g.NumEdges)),
			fmtInt(int64(g.FeatureDim())), fmtInt(int64(classes)),
		})
	}
	return t, sets
}

// Table2Result carries the effectiveness scores for the assertions in tests.
type Table2Result struct {
	// Scores[arch][dataset] = {pyg, dgl, ours}.
	Scores map[string]map[string][3]float64
}

// Table2 reproduces the effectiveness comparison (paper Table II): the
// traditional sampled pipelines vs InferTurbo full-graph inference, same
// trained model.
func Table2(s Scale) (*Table, *Table2Result, error) {
	datasets := []*datagen.Dataset{
		datagen.PPILike(s.PPINodes, 1),
		datagen.ProductsLike(s.ProductsNodes, 2),
		datagen.MAGLike(s.MAGNodes, 64, 3),
	}
	t := &Table{
		Title:   "Table II — effectiveness (test metric; micro-F1 for ppi-like, accuracy otherwise)",
		Header:  []string{"algo", "dataset", "PyG-like", "DGL-like", "ours"},
		PaperTL: "ours comparable to PyG/DGL everywhere (e.g. SAGE/MAG240M 0.662/0.664/0.668)",
	}
	out := &Table2Result{Scores: map[string]map[string][3]float64{}}
	for _, arch := range []string{"sage", "gat"} {
		out.Scores[arch] = map[string][3]float64{}
		for di, ds := range datasets {
			m, err := trainModel(arch, ds, s.Epochs, int64(100+di))
			if err != nil {
				return nil, nil, err
			}
			g := ds.Graph

			// Traditional pipelines: sampled k-hop inference. "PyG-like"
			// and "DGL-like" differ only in batching and sampling seed —
			// both are the same architecture class in the paper, scoring
			// within noise of each other.
			scoreBaseline := func(batch int, seed int64) (float64, error) {
				res, err := baseline.Run(m, g, baseline.Options{
					Workers: 4, Fanout: 50, BatchSize: batch, Seed: seed,
				})
				if err != nil {
					return 0, err
				}
				return scoreOnMask(m, g, res.Logits, g.TestMask)
			}
			pyg, err := scoreBaseline(64, 11)
			if err != nil {
				return nil, nil, err
			}
			dgl, err := scoreBaseline(128, 13)
			if err != nil {
				return nil, nil, err
			}

			// Ours: full-graph inference, no sampling.
			ours, err := runPregel(m, g, defaultOpts(s))
			if err != nil {
				return nil, nil, err
			}
			ourScore, err := scoreOnMask(m, g, ours.res.Logits, g.TestMask)
			if err != nil {
				return nil, nil, err
			}
			t.Rows = append(t.Rows, []string{
				arch, ds.Config.Name, fmtFloat(pyg), fmtFloat(dgl), fmtFloat(ourScore),
			})
			out.Scores[arch][ds.Config.Name] = [3]float64{pyg, dgl, ourScore}
		}
	}
	return t, out, nil
}

func defaultOpts(s Scale) inference.Options {
	return inference.Options{NumWorkers: s.Workers, PartialGather: true}
}

// scoreOnMask computes the task metric of logits over the masked nodes.
// Logit rows are aligned with node ids.
func scoreOnMask(m *gas.Model, g *graph.Graph, logits *tensor.Matrix, mask []bool) (float64, error) {
	nodes := graph.MaskedNodes(mask)
	if len(nodes) == 0 {
		return 0, errors.New("experiments: empty mask")
	}
	sel := tensor.GatherRows(logits, nodes)
	if m.Task == gas.TaskMultiLabel {
		return nn.MicroF1(sel, tensor.GatherRows(g.MultiLabels, nodes)), nil
	}
	labels := make([]int32, len(nodes))
	for i, v := range nodes {
		labels[i] = g.Labels[v]
	}
	return nn.Accuracy(sel, labels), nil
}

// Table3Result carries the efficiency numbers for assertions.
type Table3Result struct {
	// Minutes and CPUMin indexed by system name per arch.
	Minutes map[string]map[string]float64
	CPUMin  map[string]map[string]float64
}

// Table3 reproduces the efficiency comparison (paper Table III): time and
// resource of the traditional pipelines vs both of our backends on the
// MAG-like dataset.
func Table3(s Scale) (*Table, *Table3Result, error) {
	ds := datagen.MAGLike(s.MAGNodes, 64, 3)
	g := ds.Graph
	t := &Table{
		Title:   "Table III — time and resource on mag-like (simulated cluster)",
		Header:  []string{"algo", "system", "time(min)", "resource(cpu·min)"},
		PaperTL: "ours 30–50× faster and ~40–50× cheaper (SAGE: 780/630/20/15 min)",
	}
	out := &Table3Result{Minutes: map[string]map[string]float64{}, CPUMin: map[string]map[string]float64{}}
	for _, arch := range []string{"sage", "gat"} {
		m, err := trainModel(arch, ds, s.Epochs/2+1, 42)
		if err != nil {
			return nil, nil, err
		}
		out.Minutes[arch] = map[string]float64{}
		out.CPUMin[arch] = map[string]float64{}

		record := func(system string, rep *cluster.Report) {
			minutes := rep.WallSeconds / 60
			t.Rows = append(t.Rows, []string{arch, system, fmtFloat(minutes), fmtFloat(rep.CPUMinutes)})
			out.Minutes[arch][system] = minutes
			out.CPUMin[arch][system] = rep.CPUMinutes
		}

		for _, b := range []struct {
			name  string
			batch int
			seed  int64
		}{{"pyg-like", 64, 1}, {"dgl-like", 128, 2}} {
			res, err := baseline.Run(m, g, baseline.Options{
				Workers: 8, Fanout: 50, BatchSize: b.batch, Seed: b.seed,
			})
			if err != nil {
				return nil, nil, err
			}
			spec := cluster.BaselineCluster()
			spec.Workers = 8
			rep, err := cluster.Simulate(spec, res.Phases)
			if err != nil {
				return nil, nil, err
			}
			record(b.name, rep)
		}

		mr, err := runMapReduce(m, g, s.Workers)
		if err != nil {
			return nil, nil, err
		}
		record("on-mr", mr.report)
		pr, err := runPregel(m, g, defaultOpts(s))
		if err != nil {
			return nil, nil, err
		}
		record("on-pregel", pr.report)
	}
	return t, out, nil
}

// Table4Result carries the hops sweep for assertions.
type Table4Result struct {
	// Time[system][hops] in minutes; -1 marks OOM.
	Time     map[string][]float64
	Resource map[string][]float64
}

// Table4 reproduces the hops sweep (paper Table IV): time/resource vs GNN
// depth for nbr50, nbr10000 and ours; nbr10000 at 3 hops goes OOM.
func Table4(s Scale) (*Table, *Table4Result, error) {
	ds := datagen.MAGLike(s.MAGNodes, 64, 3)
	g := ds.Graph
	t := &Table{
		Title:   "Table IV — time and resource vs hops (simulated cluster)",
		Header:  []string{"system", "hops", "time(min)", "resource(cpu·min)"},
		PaperTL: "baselines grow exponentially with hops (nbr10000 OOMs at 3); ours grows linearly",
	}
	out := &Table4Result{Time: map[string][]float64{}, Resource: map[string][]float64{}}

	models := map[int]*gas.Model{}
	for hops := 1; hops <= 3; hops++ {
		m := gas.NewSAGEModel(fmt.Sprintf("sage-%dhop", hops), gas.TaskSingleLabel,
			g.FeatureDim(), 32, g.NumClasses, hops, 0, tensor.NewRNG(int64(hops)))
		// A few epochs keep weights realistic; the sweep measures cost.
		if _, err := train.Train(m, g, train.Config{Epochs: 2, BatchSize: 64, Fanouts: fanouts(hops, 10), Seed: int64(hops)}); err != nil {
			return nil, nil, err
		}
		models[hops] = m
	}

	// Memory budget: the paper's cluster had a fixed per-worker budget that
	// nbr50 fit at every depth and nbr10000 exceeded at 3 hops. Scale the
	// same gate to this workload: double the nbr50@3hops peak.
	peak50, err := baselinePeak(models[3], g, 50)
	if err != nil {
		return nil, nil, err
	}
	memLimit := 2 * peak50

	for _, sys := range []struct {
		name   string
		fanout int
	}{{"nbr50", 50}, {"nbr10000", 10000}} {
		out.Time[sys.name] = make([]float64, 4)
		out.Resource[sys.name] = make([]float64, 4)
		for hops := 1; hops <= 3; hops++ {
			res, err := baseline.Run(models[hops], g, baseline.Options{
				Workers: 8, Fanout: sys.fanout, BatchSize: 64, Seed: 7,
				MemLimitBytes: memLimit,
			})
			var oom *cluster.OOMError
			if errors.As(err, &oom) {
				t.Rows = append(t.Rows, []string{sys.name, fmtInt(int64(hops)), "OOM", "OOM"})
				out.Time[sys.name][hops] = -1
				out.Resource[sys.name][hops] = -1
				continue
			}
			if err != nil {
				return nil, nil, err
			}
			spec := cluster.BaselineCluster()
			spec.Workers = 8
			rep, err := cluster.Simulate(spec, res.Phases)
			if err != nil {
				return nil, nil, err
			}
			t.Rows = append(t.Rows, []string{sys.name, fmtInt(int64(hops)), fmtFloat(rep.WallSeconds / 60), fmtFloat(rep.CPUMinutes)})
			out.Time[sys.name][hops] = rep.WallSeconds / 60
			out.Resource[sys.name][hops] = rep.CPUMinutes
		}
	}

	out.Time["ours"] = make([]float64, 4)
	out.Resource["ours"] = make([]float64, 4)
	for hops := 1; hops <= 3; hops++ {
		run, err := runMapReduce(models[hops], g, s.Workers)
		if err != nil {
			return nil, nil, err
		}
		t.Rows = append(t.Rows, []string{"ours", fmtInt(int64(hops)), fmtFloat(run.report.WallSeconds / 60), fmtFloat(run.report.CPUMinutes)})
		out.Time["ours"][hops] = run.report.WallSeconds / 60
		out.Resource["ours"][hops] = run.report.CPUMinutes
	}
	t.Notes = append(t.Notes, fmt.Sprintf("memory gate %s per worker (2× the nbr50@3hops peak, mirroring the paper's fixed budget)", fmtBytes(memLimit)))
	return t, out, nil
}

func baselinePeak(m *gas.Model, g *graph.Graph, fanout int) (int64, error) {
	res, err := baseline.Run(m, g, baseline.Options{Workers: 8, Fanout: fanout, BatchSize: 64, Seed: 7})
	if err != nil {
		return 0, err
	}
	var peak int64
	for _, l := range res.Phases[0].Workers {
		if l.PeakMem > peak {
			peak = l.PeakMem
		}
	}
	return peak, nil
}

func fanouts(hops, f int) []int {
	out := make([]int, hops)
	for i := range out {
		out[i] = f
	}
	return out
}
