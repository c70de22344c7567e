package experiments

import (
	"fmt"
	"math"

	"inferturbo/internal/baseline"
	"inferturbo/internal/cluster"
	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/inference"
	"inferturbo/internal/tensor"
	"inferturbo/internal/train"
)

// Fig7Result is the consistency histogram: per fanout, the count of nodes
// predicted into 1, 2, 3, 4, 5+ distinct classes across the runs; Ours holds
// the same for InferTurbo.
type Fig7Result struct {
	Fanouts   []int
	Histogram map[int][5]int
	Ours      [5]int
	Nodes     int
}

// Fig7 reproduces the consistency experiment (paper Fig 7): repeated sampled
// inference flips predictions, full-graph inference never does.
func Fig7(s Scale) (*Table, *Fig7Result, error) {
	ds := datagen.MAGLike(s.MAGNodes, 64, 3)
	g := ds.Graph
	m, err := trainModel("sage", ds, s.Epochs/2+1, 55)
	if err != nil {
		return nil, nil, err
	}
	out := &Fig7Result{Fanouts: s.Fanouts, Histogram: map[int][5]int{}, Nodes: g.NumNodes}

	countClasses := func(runs [][]int32) [5]int {
		var hist [5]int
		for v := 0; v < g.NumNodes; v++ {
			distinct := map[int32]bool{}
			for _, r := range runs {
				distinct[r[v]] = true
			}
			bucket := len(distinct) - 1
			if bucket > 4 {
				bucket = 4
			}
			hist[bucket]++
		}
		return hist
	}

	for _, fanout := range s.Fanouts {
		var runs [][]int32
		for run := 0; run < s.Runs; run++ {
			res, err := baseline.Run(m, g, baseline.Options{
				Workers: 4, Fanout: fanout, BatchSize: 64, Seed: int64(1000*fanout + run),
			})
			if err != nil {
				return nil, nil, err
			}
			runs = append(runs, res.Classes)
		}
		out.Histogram[fanout] = countClasses(runs)
	}

	// Ours: two runs on each backend; the histogram must be all-ones. The
	// runs deliberately vary the process-wide kernel tuning — serial vs.
	// 8-way parallel kernels — extending the consistency claim to the
	// parallel compute layer: worker count must never change a prediction.
	ours := func(tu tensor.Tuning) ([][]int32, error) {
		defer tensor.SetTuning(tensor.SetTuning(tu))
		p, err := inference.RunPregel(m, g, defaultOpts(s))
		if err != nil {
			return nil, err
		}
		mr, err := inference.RunMapReduce(m, g, s.Workers)
		if err != nil {
			return nil, err
		}
		return [][]int32{p.Classes, mr.Classes}, nil
	}
	var ourRuns [][]int32
	for _, tu := range []tensor.Tuning{{Workers: 1}, {Workers: 8}} {
		runs, err := ours(tu)
		if err != nil {
			return nil, nil, err
		}
		ourRuns = append(ourRuns, runs...)
	}
	out.Ours = countClasses(ourRuns)

	t := &Table{
		Title:   fmt.Sprintf("Fig 7 — classes per node across %d runs (nodes=%d)", s.Runs, g.NumNodes),
		Header:  []string{"system", "1 class", "2", "3", "4", "5+"},
		PaperTL: "nbr10: ~30% of nodes flip; flips shrink with fanout but persist at 1000; ours: zero flips",
	}
	for _, f := range s.Fanouts {
		h := out.Histogram[f]
		t.Rows = append(t.Rows, []string{fmt.Sprintf("nbr%d", f),
			fmtInt(int64(h[0])), fmtInt(int64(h[1])), fmtInt(int64(h[2])), fmtInt(int64(h[3])), fmtInt(int64(h[4]))})
	}
	t.Rows = append(t.Rows, []string{"ours",
		fmtInt(int64(out.Ours[0])), fmtInt(int64(out.Ours[1])), fmtInt(int64(out.Ours[2])), fmtInt(int64(out.Ours[3])), fmtInt(int64(out.Ours[4]))})
	return t, out, nil
}

// Fig8Result is the scalability sweep.
type Fig8Result struct {
	Nodes      []int
	Edges      []int
	Seconds    []float64
	CPUMinutes []float64
}

// Fig8 reproduces the scalability experiment (paper Fig 8): time and
// resource vs data scale on the MapReduce driver with a 2-layer GAT.
func Fig8(s Scale) (*Table, *Fig8Result, error) {
	out := &Fig8Result{}
	t := &Table{
		Title:   "Fig 8 — resource and time vs data scale (2-layer GAT, MR backend)",
		Header:  []string{"nodes", "edges", "time(s)", "resource(cpu·min)"},
		PaperTL: "both curves near-linear in scale; 10B nodes finish within 2 hours (6765 s)",
	}
	for i, nodes := range s.ScaleSweep {
		ds := datagen.PowerLaw(nodes, datagen.SkewIn, int64(10+i))
		g := ds.Graph
		m := gas.NewGATModel("gat-scale", gas.TaskSingleLabel, g.FeatureDim(), 16, 2, g.NumClasses, 2, tensor.NewRNG(3))
		if err := maybeTrain(m, ds); err != nil {
			return nil, nil, err
		}
		run, err := runMapReduce(m, g, s.Workers)
		if err != nil {
			return nil, nil, err
		}
		out.Nodes = append(out.Nodes, nodes)
		out.Edges = append(out.Edges, g.NumEdges)
		out.Seconds = append(out.Seconds, run.report.WallSeconds)
		out.CPUMinutes = append(out.CPUMinutes, run.report.CPUMinutes)
		t.Rows = append(t.Rows, []string{
			fmtInt(int64(nodes)), fmtInt(int64(g.NumEdges)),
			fmtFloat(run.report.WallSeconds), fmtFloat(run.report.CPUMinutes),
		})
	}
	return t, out, nil
}

// Fig9Result pairs per-worker in-records with simulated latency, with and
// without partial-gather.
type Fig9Result struct {
	Records     []int64 // original (no-strategy) per-worker input records
	BaseSeconds []float64
	PGSeconds   []float64
	BaseVar     float64
	PGVar       float64
}

// skewedSetup builds the power-law dataset + trained SAGE used by the
// strategy figures.
func skewedSetup(s Scale, skew datagen.Skew) (*gas.Model, *datagen.Dataset, error) {
	ds := datagen.PowerLaw(s.PowerLawNodes, skew, 21)
	g := ds.Graph
	m := gas.NewSAGEModel("sage-skew", gas.TaskSingleLabel, g.FeatureDim(), 32, g.NumClasses, 2, 0, tensor.NewRNG(6))
	if err := maybeTrain(m, ds); err != nil {
		return nil, nil, err
	}
	return m, ds, nil
}

// maybeTrain fits one quick epoch when the dataset has any train-masked
// nodes (the power-law family marks only a millesimal, which vanishes at
// small quick-scale sizes; cost measurements don't need trained weights).
func maybeTrain(m *gas.Model, ds *datagen.Dataset) error {
	if len(graphMasked(ds)) == 0 {
		return nil
	}
	_, err := train.Train(m, ds.Graph, train.Config{Epochs: 1, BatchSize: 32, Fanouts: []int{5, 5}, Seed: 7})
	return err
}

func graphMasked(ds *datagen.Dataset) []int32 {
	var out []int32
	for v, ok := range ds.Graph.TrainMask {
		if ok {
			out = append(out, int32(v))
		}
	}
	return out
}

// Fig9 reproduces the partial-gather latency experiment (paper Fig 9):
// without the strategy, worker latency tracks in-edge count; with it, the
// spread collapses.
func Fig9(s Scale) (*Table, *Fig9Result, error) {
	m, ds, err := skewedSetup(s, datagen.SkewIn)
	if err != nil {
		return nil, nil, err
	}
	base, err := runPregel(m, ds.Graph, inference.Options{NumWorkers: s.Workers})
	if err != nil {
		return nil, nil, err
	}
	pg, err := runPregel(m, ds.Graph, inference.Options{NumWorkers: s.Workers, PartialGather: true})
	if err != nil {
		return nil, nil, err
	}
	out := &Fig9Result{
		Records:     base.res.Stats.WorkerInRecords,
		BaseSeconds: base.report.WorkerSeconds,
		PGSeconds:   pg.report.WorkerSeconds,
		BaseVar:     cluster.Variance(base.report.WorkerSeconds),
		PGVar:       cluster.Variance(pg.report.WorkerSeconds),
	}
	t := &Table{
		Title:   "Fig 9 — per-worker latency vs in-records, base vs partial-gather",
		Header:  []string{"worker", "in-records(base)", "latency-base(s)", "latency-pg(s)"},
		PaperTL: "base latency grows with in-edges; partial-gather pulls workers onto the mean line",
	}
	for w := range out.Records {
		t.Rows = append(t.Rows, []string{
			fmtInt(int64(w)), fmtInt(out.Records[w]),
			fmtFloat(out.BaseSeconds[w]), fmtFloat(out.PGSeconds[w]),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("latency variance: base %s → pg %s", fmtFloat(out.BaseVar), fmtFloat(out.PGVar)))
	return t, out, nil
}

// Fig10Result holds per-strategy worker-time variances.
type Fig10Result struct {
	Variance map[string]float64
}

// Fig10 reproduces the out-degree strategy comparison (paper Fig 10):
// variance of per-worker time for Base / SN / BC / SN+BC.
func Fig10(s Scale) (*Table, *Fig10Result, error) {
	m, ds, err := skewedSetup(s, datagen.SkewOut)
	if err != nil {
		return nil, nil, err
	}
	configs := []struct {
		name string
		opts inference.Options
	}{
		{"base", inference.Options{NumWorkers: s.Workers}},
		{"sn", inference.Options{NumWorkers: s.Workers, ShadowNodes: true}},
		{"bc", inference.Options{NumWorkers: s.Workers, Broadcast: true}},
		{"sn+bc", inference.Options{NumWorkers: s.Workers, ShadowNodes: true, Broadcast: true}},
	}
	out := &Fig10Result{Variance: map[string]float64{}}
	t := &Table{
		Title:   "Fig 10 — variance of worker time under out-degree strategies",
		Header:  []string{"strategy", "variance", "wall(s)"},
		PaperTL: "SN and BC both cut variance vs base; BC slightly better; SN+BC best for SAGE",
	}
	for _, c := range configs {
		run, err := runPregel(m, ds.Graph, c.opts)
		if err != nil {
			return nil, nil, err
		}
		v := cluster.Variance(run.report.WorkerSeconds)
		out.Variance[c.name] = v
		t.Rows = append(t.Rows, []string{c.name, fmtFloat(v), fmtFloat(run.report.WallSeconds)})
	}
	return t, out, nil
}

// Fig11Result is the partial-gather IO comparison.
type Fig11Result struct {
	Records       []int64
	BaseBytesIn   []int64
	PGBytesIn     []int64
	TotalSaving   float64 // fraction of total input bytes saved
	TailSaving    float64 // fraction saved for the slowest 10% of workers
	BaseTailBytes float64
	PGTailBytes   float64
}

// Fig11 reproduces the partial-gather IO experiment (paper Fig 11): input
// bytes capped near a constant with the strategy on.
func Fig11(s Scale) (*Table, *Fig11Result, error) {
	m, ds, err := skewedSetup(s, datagen.SkewIn)
	if err != nil {
		return nil, nil, err
	}
	base, err := runPregel(m, ds.Graph, inference.Options{NumWorkers: s.Workers})
	if err != nil {
		return nil, nil, err
	}
	pg, err := runPregel(m, ds.Graph, inference.Options{NumWorkers: s.Workers, PartialGather: true})
	if err != nil {
		return nil, nil, err
	}
	out := &Fig11Result{
		Records:     base.res.Stats.WorkerInRecords,
		BaseBytesIn: base.res.Stats.WorkerBytesIn,
		PGBytesIn:   pg.res.Stats.WorkerBytesIn,
	}
	var baseTotal, pgTotal int64
	baseF := make([]float64, len(out.BaseBytesIn))
	pgF := make([]float64, len(out.PGBytesIn))
	for w := range out.BaseBytesIn {
		baseTotal += out.BaseBytesIn[w]
		pgTotal += out.PGBytesIn[w]
		baseF[w] = float64(out.BaseBytesIn[w])
		pgF[w] = float64(out.PGBytesIn[w])
	}
	out.TotalSaving = 1 - float64(pgTotal)/float64(baseTotal)
	out.BaseTailBytes = cluster.TailMean(baseF, 0.1)
	out.PGTailBytes = cluster.TailMean(pgF, 0.1)
	out.TailSaving = 1 - out.PGTailBytes/out.BaseTailBytes

	t := &Table{
		Title:   "Fig 11 — input bytes per worker, base vs partial-gather",
		Header:  []string{"worker", "in-records(base)", "bytes-base", "bytes-pg"},
		PaperTL: "total IO down ~25%, tail-10% workers down ~73%; input capped at workers×nodes level",
	}
	for w := range out.Records {
		t.Rows = append(t.Rows, []string{
			fmtInt(int64(w)), fmtInt(out.Records[w]),
			fmtBytes(out.BaseBytesIn[w]), fmtBytes(out.PGBytesIn[w]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("total saving %.1f%%, tail-10%% saving %.1f%%", 100*out.TotalSaving, 100*out.TailSaving))
	return t, out, nil
}

// Fig12Result is the broadcast IO threshold sweep.
type Fig12Result struct {
	Thresholds  []int // 0 = base (strategy off)
	TotalBytes  []int64
	TailBytes   []float64 // mean of top-10% workers' output bytes
	TailSavings []float64 // vs base
}

// outDegThresholds derives a threshold sweep for the scale's power-law
// dataset: fractions of the heuristic threshold mirror the paper's
// 10k/50k/100k/300k sweep at 1B-edge scale.
func outDegThresholds(g graphEdges, workers int) []int {
	h := g.NumEdges() / workers / 10 // λ = 0.1 heuristic
	if h < 4 {
		h = 4
	}
	return []int{3 * h, h, h / 2, h / 10}
}

// heuristicIdx is the heuristic threshold's row in a Fig 12/13 sweep:
// base, 3h, h, h/2, h/10.
const heuristicIdx = 2

// shapeTolerance is how far, in percentage points, a measured saving may
// sit from a paper figure quoted as "~x%" and still meet it.
const shapeTolerance = 10.0

// verdictWord renders a shape check as the verdict row's second cell.
func verdictWord(met bool) string {
	if met {
		return "met"
	}
	return "missed"
}

type graphEdges interface{ NumEdges() int }

type graphEdgeCount struct{ n int }

func (g graphEdgeCount) NumEdges() int { return g.n }

// Fig12 reproduces the broadcast IO experiment (paper Fig 12): output bytes
// per worker under decreasing hub thresholds.
func Fig12(s Scale) (*Table, *Fig12Result, error) {
	m, ds, err := skewedSetup(s, datagen.SkewOut)
	if err != nil {
		return nil, nil, err
	}
	thresholds := append([]int{0}, outDegThresholds(graphEdgeCount{ds.Graph.NumEdges}, s.Workers)...)
	out := &Fig12Result{}
	t := &Table{
		Title:   "Fig 12 — output bytes per worker under broadcast thresholds",
		Header:  []string{"threshold", "total-out", "tail10%-out", "tail-saving"},
		PaperTL: "tail-worker output down ~42% at the heuristic threshold; <5% extra gain below it",
	}
	var baseTail float64
	for _, th := range thresholds {
		opts := inference.Options{NumWorkers: s.Workers}
		name := "base"
		if th > 0 {
			opts.Broadcast = true
			opts.HubThreshold = th
			name = fmtInt(int64(th))
		}
		run, err := runPregel(m, ds.Graph, opts)
		if err != nil {
			return nil, nil, err
		}
		var total int64
		outF := make([]float64, len(run.res.Stats.WorkerBytesOut))
		for w, b := range run.res.Stats.WorkerBytesOut {
			total += b
			outF[w] = float64(b)
		}
		tail := cluster.TailMean(outF, 0.1)
		if th == 0 {
			baseTail = tail
		}
		saving := 1 - tail/baseTail
		out.Thresholds = append(out.Thresholds, th)
		out.TotalBytes = append(out.TotalBytes, total)
		out.TailBytes = append(out.TailBytes, tail)
		out.TailSavings = append(out.TailSavings, saving)
		t.Rows = append(t.Rows, []string{name, fmtBytes(total), fmtBytes(int64(tail)), fmt.Sprintf("%.1f%%", 100*saving)})
	}
	t.Rows = append(t.Rows, out.Verdict())
	return t, out, nil
}

// Verdict checks the sweep against the paper's Fig 12 shape — tail saving
// ~42% at the heuristic threshold, and less than 5 more points at the next
// threshold below it — and renders the result as a table row.
func (r *Fig12Result) Verdict() []string {
	at := 100 * r.TailSavings[heuristicIdx]
	extra := 100*r.TailSavings[heuristicIdx+1] - at
	met := math.Abs(at-42) <= shapeTolerance && extra < 5
	return []string{"verdict", verdictWord(met),
		fmt.Sprintf("%.1f%% at %d (paper ~42%%)", at, r.Thresholds[heuristicIdx]),
		fmt.Sprintf("%+.1f pts at %d (paper <5)", extra, r.Thresholds[heuristicIdx+1])}
}

// Fig13Result is the shadow-nodes IO threshold sweep.
type Fig13Result struct {
	Thresholds  []int
	TailBytes   []float64
	TailSavings []float64
	Mirrors     []int64
}

// Fig13 reproduces the shadow-nodes IO experiment (paper Fig 13): per-worker
// output bytes (sorted) under decreasing thresholds.
func Fig13(s Scale) (*Table, *Fig13Result, error) {
	m, ds, err := skewedSetup(s, datagen.SkewOut)
	if err != nil {
		return nil, nil, err
	}
	thresholds := append([]int{0}, outDegThresholds(graphEdgeCount{ds.Graph.NumEdges}, s.Workers)...)
	out := &Fig13Result{}
	t := &Table{
		Title:   "Fig 13 — output bytes of tail workers under shadow-node thresholds",
		Header:  []string{"threshold", "mirrors", "tail10%-out", "tail-saving"},
		PaperTL: "tail-worker output down ~53% at the heuristic threshold; overhead grows as threshold drops",
	}
	var baseTail float64
	for _, th := range thresholds {
		opts := inference.Options{NumWorkers: s.Workers}
		name := "base"
		if th > 0 {
			opts.ShadowNodes = true
			opts.HubThreshold = th
			name = fmtInt(int64(th))
		}
		run, err := runPregel(m, ds.Graph, opts)
		if err != nil {
			return nil, nil, err
		}
		outF := make([]float64, len(run.res.Stats.WorkerBytesOut))
		for w, b := range run.res.Stats.WorkerBytesOut {
			outF[w] = float64(b)
		}
		tail := cluster.TailMean(outF, 0.1)
		if th == 0 {
			baseTail = tail
		}
		saving := 1 - tail/baseTail
		out.Thresholds = append(out.Thresholds, th)
		out.TailBytes = append(out.TailBytes, tail)
		out.TailSavings = append(out.TailSavings, saving)
		out.Mirrors = append(out.Mirrors, run.res.Stats.ShadowMirrors)
		t.Rows = append(t.Rows, []string{name, fmtInt(run.res.Stats.ShadowMirrors), fmtBytes(int64(tail)), fmt.Sprintf("%.1f%%", 100*saving)})
	}
	t.Rows = append(t.Rows, out.Verdict())
	return t, out, nil
}

// Verdict checks the sweep against the paper's Fig 13 shape — tail saving
// ~53% at the heuristic threshold, and the mirror overhead growing as the
// threshold drops — and renders the result as a table row.
func (r *Fig13Result) Verdict() []string {
	at := 100 * r.TailSavings[heuristicIdx]
	grows := true
	for i := 2; i < len(r.Mirrors); i++ {
		grows = grows && r.Mirrors[i] >= r.Mirrors[i-1]
	}
	met := math.Abs(at-53) <= shapeTolerance && grows
	growth := "mirrors grow as it drops"
	if !grows {
		growth = "mirrors do not grow as it drops"
	}
	return []string{"verdict", verdictWord(met),
		fmt.Sprintf("%.1f%% at %d (paper ~53%%)", at, r.Thresholds[heuristicIdx]), growth}
}
