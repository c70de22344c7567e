package pregel

import (
	"math"
	"testing"

	"inferturbo/internal/graph"
)

// Classic graph-processing programs, written as BatchPrograms over the
// columnar plane. They validate the engine against textbook reference
// implementations (the paper motivates the GAS abstraction with exactly
// these workloads).

// A float64 travels as two float32 words, hi and lo, whose sum restores
// it to about 48 bits — far below the 1e-9 the PageRank checks allow.
func encode64(dst []float32, x float64) {
	hi := float32(x)
	dst[0], dst[1] = hi, float32(x-float64(hi))
}

func decode64(p []float32) float64 { return float64(p[0]) + float64(p[1]) }

// pageRankProg computes PageRank with damping 0.85 for a fixed number of
// iterations. Ranks live in per-worker slabs; messages are rank
// contributions encoded with encode64.
type pageRankProg struct {
	g          *graph.Graph
	iterations int
	rank       [][]float64 // per worker, by local index
}

func newPageRankProg(g *graph.Graph, iterations, workers int) *pageRankProg {
	return &pageRankProg{g: g, iterations: iterations, rank: make([][]float64, workers)}
}

func (p *pageRankProg) ComputeBatch(ctx *BatchContext) {
	w, step := ctx.WorkerID(), ctx.Superstep
	owned := ctx.Owned()
	n := float64(p.g.NumNodes)
	if step == 0 {
		p.rank[w] = make([]float64, len(owned))
	}
	off, in := ctx.InboxCSR()
	var pay [2]float32
	var cost int64
	for li, v := range owned {
		switch {
		case step == 0:
			p.rank[w][li] = 1 / n
		case step <= p.iterations:
			var sum float64
			for i := off[li]; i < off[li+1]; i++ {
				sum += decode64(in.Payloads[i])
			}
			p.rank[w][li] = 0.15/n + 0.85*sum
		}
		if step >= p.iterations {
			ctx.Halt(li)
			continue
		}
		dsts := p.g.OutNeighbors(v)
		if len(dsts) == 0 {
			continue
		}
		encode64(pay[:], p.rank[w][li]/float64(len(dsts)))
		for _, d := range dsts {
			ctx.SendColumnar(d, 0, v, 1, pay[:])
		}
		cost += int64(len(dsts))
	}
	ctx.AddCost(cost)
}

// SnapshotProgState implements ProgramStater.
func (p *pageRankProg) SnapshotProgState() any {
	snap := make([][]float64, len(p.rank))
	for w, r := range p.rank {
		snap[w] = append([]float64(nil), r...)
	}
	return snap
}

// RestoreProgState implements ProgramStater.
func (p *pageRankProg) RestoreProgState(snap any) {
	for w, r := range snap.([][]float64) {
		p.rank[w] = append([]float64(nil), r...)
	}
}

// ranks returns the ranks indexed by vertex id.
func (p *pageRankProg) ranks(e *Engine) []float64 {
	out := make([]float64, p.g.NumNodes)
	for v := range out {
		out[v] = p.rank[e.part.WorkerFor(int32(v))][e.part.LocalIndex(int32(v))]
	}
	return out
}

// pageRankCombine merges rank contributions for the same destination.
func pageRankCombine(_ uint8, acc, pay []float32, accCount, payCount int32) (int32, bool) {
	encode64(acc, decode64(acc)+decode64(pay))
	return accCount + payCount, true
}

// runPageRank runs iterations of PageRank over g and returns the engine and
// the ranks.
func runPageRank(t *testing.T, g *graph.Graph, iterations int, cfg Config) (*Engine, []float64) {
	t.Helper()
	prog := newPageRankProg(g, iterations, cfg.NumWorkers)
	eng := NewEngine(g, prog, cfg)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng, prog.ranks(eng)
}

// referencePageRank computes the same fixed-iteration PageRank on a single
// thread in float64.
func referencePageRank(g *graph.Graph, iterations int) []float64 {
	n := g.NumNodes
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, n)
		for v := range next {
			next[v] = 0.15 / float64(n)
		}
		for v := int32(0); int(v) < n; v++ {
			dsts := g.OutNeighbors(v)
			if len(dsts) == 0 {
				continue
			}
			share := 0.85 * rank[v] / float64(len(dsts))
			for _, u := range dsts {
				next[u] += share
			}
		}
		rank = next
	}
	return rank
}

// ssspProg computes single-source shortest paths over unit-weight edges.
// Distances live in per-worker slabs; messages are candidate distances.
type ssspProg struct {
	g      *graph.Graph
	source int32
	dist   [][]float32 // per worker, by local index
}

func newSSSPProg(g *graph.Graph, source int32, workers int) *ssspProg {
	return &ssspProg{g: g, source: source, dist: make([][]float32, workers)}
}

func (p *ssspProg) ComputeBatch(ctx *BatchContext) {
	w := ctx.WorkerID()
	owned := ctx.Owned()
	if ctx.Superstep == 0 {
		p.dist[w] = make([]float32, len(owned))
	}
	off, in := ctx.InboxCSR()
	var cost int64
	for li, v := range owned {
		if !ctx.Computed(li) {
			continue
		}
		ctx.Halt(li)
		if ctx.Superstep == 0 {
			if v != p.source {
				p.dist[w][li] = float32(math.Inf(1))
				continue
			}
			p.dist[w][li] = 0
		} else {
			best := p.dist[w][li]
			for i := off[li]; i < off[li+1]; i++ {
				best = min(best, in.Payloads[i][0])
			}
			if best >= p.dist[w][li] {
				continue
			}
			p.dist[w][li] = best
		}
		dsts := p.g.OutNeighbors(v)
		pay := [1]float32{p.dist[w][li] + 1}
		for _, d := range dsts {
			ctx.SendColumnar(d, 0, v, 1, pay[:])
		}
		cost += int64(len(dsts))
	}
	ctx.AddCost(cost)
}

// ssspCombine keeps the smallest candidate distance per destination.
func ssspCombine(_ uint8, acc, pay []float32, accCount, payCount int32) (int32, bool) {
	acc[0] = min(acc[0], pay[0])
	return accCount + payCount, true
}

// runSSSP runs SSSP from source over g and returns the engine and the
// distances indexed by vertex id.
func runSSSP(t *testing.T, g *graph.Graph, source int32, cfg Config) (*Engine, []float32) {
	t.Helper()
	prog := newSSSPProg(g, source, cfg.NumWorkers)
	eng := NewEngine(g, prog, cfg)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	dist := make([]float32, g.NumNodes)
	for v := range dist {
		dist[v] = prog.dist[eng.part.WorkerFor(int32(v))][eng.part.LocalIndex(int32(v))]
	}
	return eng, dist
}

// referenceSSSP is a BFS oracle for unit-weight SSSP.
func referenceSSSP(g *graph.Graph, source int32) []float32 {
	dist := make([]float32, g.NumNodes)
	for v := range dist {
		dist[v] = float32(math.Inf(1))
	}
	dist[source] = 0
	queue := []int32{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.OutNeighbors(v) {
			if dist[v]+1 < dist[u] {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

func TestPageRankMatchesReference(t *testing.T) {
	g := randomGraph(100, 500, 1)
	_, got := runPageRank(t, g, 20, Config{NumWorkers: 4, MaxSupersteps: 25, Combine: pageRankCombine})
	want := referencePageRank(g, 20)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestPageRankRanksSum(t *testing.T) {
	_, ranks := runPageRank(t, ringGraph(50), 10, Config{NumWorkers: 3})
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	// On a ring (every vertex has out-degree 1) rank mass is conserved.
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("total rank = %v, want 1", sum)
	}
}

func TestPageRankIndependentOfWorkerCount(t *testing.T) {
	g := randomGraph(80, 400, 2)
	_, a := runPageRank(t, g, 15, Config{NumWorkers: 1})
	_, b := runPageRank(t, g, 15, Config{NumWorkers: 7})
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-9 {
			t.Fatalf("rank[%d] differs across worker counts: %v vs %v", v, a[v], b[v])
		}
	}
}

func TestSSSPMatchesBFS(t *testing.T) {
	g := randomGraph(120, 400, 3)
	_, got := runSSSP(t, g, 0, Config{NumWorkers: 5, MaxSupersteps: 200, Combine: ssspCombine})
	want := referenceSSSP(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestSSSPHaltsBeforeMaxSupersteps(t *testing.T) {
	eng, _ := runSSSP(t, ringGraph(10), 0, Config{NumWorkers: 2, MaxSupersteps: 100})
	// A 10-ring needs ~11 supersteps; the engine must not run to the cap.
	if eng.Supersteps() > 15 {
		t.Fatalf("supersteps = %d, expected early halt", eng.Supersteps())
	}
}
