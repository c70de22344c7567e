package experiments

import (
	"strings"
	"testing"
)

// The experiment tests run the Quick scale and assert the paper's *shape*
// claims end-to-end across datagen, train, baseline, inference and cluster.

func TestTable1DatasetShapes(t *testing.T) {
	tbl, sets := Table1(Quick())
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if sets[0].Graph.MultiLabels == nil {
		t.Fatal("ppi-like must be multi-label")
	}
	for _, ds := range sets {
		if err := ds.Graph.Validate(); err != nil {
			t.Fatalf("%s: %v", ds.Config.Name, err)
		}
	}
	if !strings.Contains(tbl.String(), "power-law") {
		t.Fatal("table must include the power-law dataset")
	}
}

func TestTable2OursComparableAndAboveChance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains six models")
	}
	_, res, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for arch, byDS := range res.Scores {
		for ds, s := range byDS {
			pyg, dgl, ours := s[0], s[1], s[2]
			// Ours must be comparable: within 0.1 of the sampled baselines
			// (paper: within ~0.01; quick training is noisier).
			if ours < pyg-0.1 || ours < dgl-0.1 {
				t.Errorf("%s/%s: ours %.3f far below baselines %.3f/%.3f", arch, ds, ours, pyg, dgl)
			}
			if ours <= 0 {
				t.Errorf("%s/%s: degenerate score", arch, ds)
			}
		}
	}
}

func TestTable3OursFasterAndCheaper(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	_, res, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for arch := range res.Minutes {
		pyg := res.Minutes[arch]["pyg-like"]
		mr := res.Minutes[arch]["on-mr"]
		pr := res.Minutes[arch]["on-pregel"]
		if mr >= pyg || pr >= pyg {
			t.Errorf("%s: ours not faster: pyg=%v mr=%v pregel=%v", arch, pyg, mr, pr)
		}
		// The paper's headline: a large constant factor. At quick scale we
		// require at least 3x.
		if pyg/mr < 3 {
			t.Errorf("%s: speedup only %.1fx", arch, pyg/mr)
		}
		if res.CPUMin[arch]["on-mr"] >= res.CPUMin[arch]["pyg-like"] {
			t.Errorf("%s: ours not cheaper", arch)
		}
	}
}

func TestTable4LinearVsExponential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full hops sweep")
	}
	_, res, err := Table4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// nbr10000 must OOM at 3 hops.
	if res.Time["nbr10000"][3] != -1 {
		t.Errorf("nbr10000@3hops should OOM, got %v min", res.Time["nbr10000"][3])
	}
	// Ours grows sub-quadratically (near-linear): t3/t2 well below t2/t1
	// blow-up of the baseline.
	ours := res.Time["ours"]
	if ours[1] <= 0 || ours[2] <= 0 || ours[3] <= 0 {
		t.Fatalf("ours times missing: %v", ours)
	}
	ourGrowth := ours[3] / ours[1]
	if ourGrowth > 6 {
		t.Errorf("ours grew %0.1fx from 1 to 3 hops; expected near-linear", ourGrowth)
	}
	base := res.Time["nbr50"]
	if base[3] != -1 && base[2] > 0 {
		baseGrowth := base[3] / base[1]
		if baseGrowth <= ourGrowth {
			t.Errorf("baseline growth %.1fx not worse than ours %.1fx", baseGrowth, ourGrowth)
		}
	}
}

func TestFig7SamplingFlipsOursNever(t *testing.T) {
	if testing.Short() {
		t.Skip("many baseline runs")
	}
	_, res, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Ours: every node in exactly one class across runs and backends.
	if res.Ours[0] != res.Nodes {
		t.Fatalf("ours flipped: histogram %v over %d nodes", res.Ours, res.Nodes)
	}
	// Smallest fanout must flip some nodes.
	smallest := res.Histogram[res.Fanouts[0]]
	flips := res.Nodes - smallest[0]
	if flips == 0 {
		t.Fatal("aggressive sampling should flip some predictions")
	}
	// Flips shrink as fanout grows.
	largest := res.Histogram[res.Fanouts[len(res.Fanouts)-1]]
	if res.Nodes-largest[0] > flips {
		t.Errorf("flips did not shrink with fanout: %d → %d", flips, res.Nodes-largest[0])
	}
}

func TestFig8NearLinearScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep")
	}
	_, res, err := Fig8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seconds) != 3 {
		t.Fatalf("sweep points = %d", len(res.Seconds))
	}
	// 3x data → between 1.2x and 9x time (near-linear band, generous at
	// quick scale).
	for i := 1; i < len(res.Seconds); i++ {
		dataRatio := float64(res.Edges[i]) / float64(res.Edges[i-1])
		timeRatio := res.Seconds[i] / res.Seconds[i-1]
		if timeRatio > dataRatio*3 {
			t.Errorf("superlinear: data %.1fx, time %.1fx", dataRatio, timeRatio)
		}
		if timeRatio < 1 {
			t.Errorf("time decreased with scale: %v", res.Seconds)
		}
	}
}

func TestFig9PartialGatherFlattensLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	_, res, err := Fig9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.PGVar >= res.BaseVar {
		t.Errorf("partial-gather variance %v not below base %v", res.PGVar, res.BaseVar)
	}
}

func TestFig10StrategiesCutVariance(t *testing.T) {
	if testing.Short() {
		t.Skip("four full runs")
	}
	_, res, err := Fig10(Quick())
	if err != nil {
		t.Fatal(err)
	}
	base := res.Variance["base"]
	for _, s := range []string{"sn", "bc", "sn+bc"} {
		if res.Variance[s] >= base {
			t.Errorf("%s variance %v not below base %v", s, res.Variance[s], base)
		}
	}
}

func TestFig11PartialGatherSavesIO(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	_, res, err := Fig11(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSaving <= 0 {
		t.Errorf("no total IO saving: %v", res.TotalSaving)
	}
	if res.TailSaving < res.TotalSaving {
		t.Errorf("tail saving %.2f should exceed total saving %.2f (hubs benefit most)",
			res.TailSaving, res.TotalSaving)
	}
}

func TestFig12BroadcastCutsTailOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold sweep")
	}
	_, res, err := Fig12(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Every enabled threshold beats base on tail output.
	for i := 1; i < len(res.Thresholds); i++ {
		if res.TailSavings[i] <= 0 {
			t.Errorf("threshold %d: no tail saving (%.2f)", res.Thresholds[i], res.TailSavings[i])
		}
	}
}

func TestFig13ShadowNodesCutTailOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold sweep")
	}
	_, res, err := Fig13(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Thresholds); i++ {
		if res.Mirrors[i] == 0 {
			t.Errorf("threshold %d created no mirrors", res.Thresholds[i])
		}
		if res.TailSavings[i] <= 0 {
			t.Errorf("threshold %d: no tail saving (%.2f)", res.Thresholds[i], res.TailSavings[i])
		}
	}
}

// TestFigVerdictsFollowRows: the Fig 12/13 verdict rows are computed from
// the measured sweep, so moving a measured saving across the paper's
// figure flips them, and the rows a run prints are the verdict of that
// run's own result.
func TestFigVerdictsFollowRows(t *testing.T) {
	th := []int{0, 300, 100, 50, 10}
	fig12 := func(savings ...float64) string {
		return (&Fig12Result{Thresholds: th, TailSavings: savings}).Verdict()[1]
	}
	if v := fig12(0, .1, .40, .43, .44); v != "met" {
		t.Errorf("fig12 at 40%%, +4 pts below: %s", v)
	}
	if v := fig12(0, .1, .40, .58, .74); v != "missed" {
		t.Errorf("fig12 at 40%%, +18 pts below: %s", v)
	}
	if v := fig12(0, .1, .20, .21, .22); v != "missed" {
		t.Errorf("fig12 at 20%%: %s", v)
	}
	fig13 := func(at float64, mirrors ...int64) string {
		return (&Fig13Result{Thresholds: th, TailSavings: []float64{0, .1, at, .6, .7}, Mirrors: mirrors}).Verdict()[1]
	}
	if v := fig13(.50, 0, 5, 55, 158, 1180); v != "met" {
		t.Errorf("fig13 at 50%%, mirrors growing: %s", v)
	}
	if v := fig13(.204, 0, 5, 55, 158, 1180); v != "missed" {
		t.Errorf("fig13 at 20.4%%: %s", v)
	}
	if v := fig13(.50, 0, 5, 55, 40, 1180); v != "missed" {
		t.Errorf("fig13 with shrinking mirrors: %s", v)
	}

	if testing.Short() {
		return
	}
	t12, r12, err := Fig12(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t13, r13, err := Fig13(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tbl  *Table
		want []string
	}{{t12, r12.Verdict()}, {t13, r13.Verdict()}} {
		last := c.tbl.Rows[len(c.tbl.Rows)-1]
		if strings.Join(last, "|") != strings.Join(c.want, "|") {
			t.Errorf("%s: last row %q, want verdict %q", c.tbl.Title, last, c.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Header:  []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"hello"},
		PaperTL: "shape",
	}
	s := tbl.String()
	for _, want := range []string{"== demo ==", "paper shape: shape", "a", "bb", "333", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}
