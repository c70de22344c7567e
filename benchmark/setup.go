package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/serve"
	"inferturbo/internal/tensor"
)

// fixture is one workload's live system: the loaded graph, the model, and a
// durable server behind a loopback HTTP listener. The restart phase replaces
// srv and ts in place.
type fixture struct {
	w     workload
	sc    scale
	seed  int64
	dir   string // SessionDir of the live server
	g     *graph.Graph
	model *gas.Model
	srv   *serve.Server
	ts    *httptest.Server
	hc    *http.Client
	tr    *tracer

	pass inference.Options // w.Pass at this scale

	roots      *tensor.RNG // query roots
	byInDegree []int32     // node ids in ascending in-degree order (pickRoots' strata)
	mut        *mutator    // write-phase stream

	setup setupTimes
}

// setupTimes are the per-layer parts of one set-up.
type setupTimes struct {
	Total, Generate, Load time.Duration
}

// serveConfig is the one server configuration every workload uses. Fields
// not set here keep their shipped defaults (BatchWindow, MaxBatchSize, ...).
func (f *fixture) serveConfig(sessionDir string) serve.Config {
	return serve.Config{Model: f.model, Graph: f.g, Refresh: refreshOptions, SessionDir: sessionDir}
}

// newFixture performs one full set-up, timing it from the caller's start:
// generate, save + graph.LoadFile, model, New + Start (the prime pass), and
// the untimed warm-up the measurements rely on.
func newFixture(w workload, sc scale, seed int64, tmp string, tr *tracer, parent int) (_ *fixture, err error) {
	start := time.Now()
	w = w.at(sc)
	f := &fixture{w: w, sc: sc, seed: seed, tr: tr}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	sid := tr.begin("bench.setup", parent, 0)
	defer tr.end(sid)

	cfg := w.Data
	cfg.Seed = seed
	var ds *datagen.Dataset
	f.setup.Generate = tr.timed("datagen.Generate", sid, func() { ds = datagen.Generate(cfg) })

	path := filepath.Join(tmp, "graph.bin")
	tr.timed("graph.SaveFile", sid, func() { err = ds.Graph.SaveFile(path) })
	if err != nil {
		return nil, fmt.Errorf("save graph: %w", err)
	}
	f.setup.Load = tr.timed("graph.LoadFile", sid, func() { f.g, err = graph.LoadFile(path) })
	if err != nil {
		return nil, fmt.Errorf("load graph: %w", err)
	}
	ds = nil // only the loaded copy is used from here on

	f.byInDegree = make([]int32, f.g.NumNodes)
	for v := range f.byInDegree {
		f.byInDegree[v] = int32(v)
	}
	sort.SliceStable(f.byInDegree, func(a, b int) bool {
		return f.g.InDegree(f.byInDegree[a]) < f.g.InDegree(f.byInDegree[b])
	})
	f.model = w.Model(tensor.NewRNG(seed + 1))
	f.roots = tensor.NewRNG(seed + 2)
	f.mut = newMutator(f.g, tensor.NewRNG(seed+3), w.HubRewrite)
	f.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU() + 2}}

	f.dir = filepath.Join(tmp, "session")
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return nil, err
	}
	if err := f.startServer(sid); err != nil {
		return nil, err
	}

	// Warm-up: untimed as an operation, but part of what set-up costs.
	wid := tr.begin("bench.warmup", sid, 0)
	for i := 0; i < sc.WarmPasses; i++ {
		if _, err := inference.RunPregel(f.model, f.g, w.Pass); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
	}
	for i := 0; i < sc.WarmQueries; i++ {
		n := 1
		if i%4 == 3 {
			n = 16
		}
		if _, err := f.query(f.pickRoots(f.roots, n), wid, 0); err != nil {
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
	}
	tr.end(wid)
	f.setup.Total = time.Since(start)
	return f, nil
}

// startServer constructs and starts a server on f.dir and waits until it is
// ready. On an empty dir this is the prime pass; on a used one it is the
// restart path (resume slabs, replay the WAL, one refresh).
func (f *fixture) startServer(parent int) error {
	var srv *serve.Server
	var err error
	f.tr.timed("serve.New", parent, func() { srv, err = serve.New(f.serveConfig(f.dir)) })
	if err != nil {
		return fmt.Errorf("serve.New: %w", err)
	}
	f.tr.timed("serve.Start", parent, func() { err = srv.Start() })
	if err != nil {
		return fmt.Errorf("serve.Start: %w", err)
	}
	if ok, why := srv.Ready(); !ok {
		srv.Close()
		return fmt.Errorf("server not ready after Start: %s", why)
	}
	f.srv = srv
	f.ts = httptest.NewServer(srv.Handler())
	return nil
}

// stopServer closes the listener and the server (draining the in-flight
// session epoch and fsyncing the WAL).
func (f *fixture) stopServer() {
	if f.ts != nil {
		f.hc.CloseIdleConnections()
		f.ts.Close()
		f.ts = nil
	}
	if f.srv != nil {
		f.srv.Close()
		f.srv = nil
	}
}

// close tears the fixture down and removes its files.
func (f *fixture) close() {
	f.stopServer()
	os.RemoveAll(f.dir)
}

// mutator generates the write-phase stream: every batch rewrites one node's
// features and adds one edge into that node from the round's source node, so
// a batch adds one flood seed (two would put a degree-scaled model's round of
// 32 within reach of DeltaCutover); every fourth batch also removes the edge
// the previous batch added. Pairs are never reused, so no removal can miss.
type mutator struct {
	rng  *tensor.RNG
	n    int
	dim  int
	used map[[2]int32]bool
	src  int32 // the current round's edge source
	prev [2]int32
	i    int
	hubs []int32 // nodes whose rewrite floods past the cutover; nil unless HubRewrite
}

func newMutator(g *graph.Graph, rng *tensor.RNG, hubRewrite bool) *mutator {
	m := &mutator{rng: rng, n: g.NumNodes, dim: g.FeatureDim(), used: make(map[[2]int32]bool)}
	if hubRewrite {
		m.hubs = floodHubs(g, 2, 0.5)
	}
	return m
}

func (m *mutator) row() []float32 {
	r := make([]float32, m.dim)
	for j := range r {
		r[j] = m.rng.Float32()*2 - 1
	}
	return r
}

// next builds one batch; first marks the first batch of a round, which picks
// the round's source and, on a HubRewrite workload, carries the hub rewrites.
func (m *mutator) next(first bool) serve.MutateRequest {
	if first || m.i == 0 {
		m.src = int32(m.rng.Intn(m.n))
	}
	u := m.src
	var v int32
	for {
		v = int32(m.rng.Intn(m.n))
		if u != v && !m.used[[2]int32{u, v}] {
			break
		}
	}
	m.used[[2]int32{u, v}] = true
	req := serve.MutateRequest{
		Features: []serve.NodeFeatureUpdate{{Node: v, Features: m.row()}},
		AddEdges: []serve.NewEdge{{Src: u, Dst: v}},
	}
	if m.i%4 == 3 {
		req.RemoveEdges = []serve.EdgeRef{{Src: m.prev[0], Dst: m.prev[1]}}
	}
	if first {
		for _, h := range m.hubs {
			if h != v {
				req.Features = append(req.Features, serve.NodeFeatureUpdate{Node: h, Features: m.row()})
			}
		}
	}
	m.prev = [2]int32{u, v}
	m.i++
	return req
}

// floodHubs returns top out-degree nodes, in descending degree order, until
// their joint hops-deep out-flood covers more than share of the graph — the
// set whose rewrite the Session's flood estimate will send to a full pass
// (its cutover is 0.25; share leaves a wide margin).
func floodHubs(g *graph.Graph, hops int, share float64) []int32 {
	order := make([]int32, g.NumNodes)
	for v := range order {
		order[v] = int32(v)
	}
	sort.SliceStable(order, func(a, b int) bool { return g.OutDegree(order[a]) > g.OutDegree(order[b]) })
	visited := make([]bool, g.NumNodes)
	count := 0
	var hubs []int32
	for _, h := range order {
		if float64(count) > share*float64(g.NumNodes) {
			break
		}
		hubs = append(hubs, h)
		cur := []int32{h}
		if !visited[h] {
			visited[h] = true
			count++
		}
		for d := 0; d < hops; d++ {
			var next []int32
			for _, v := range cur {
				for _, u := range g.OutNeighbors(v) {
					if !visited[u] {
						visited[u] = true
						count++
						next = append(next, u)
					}
				}
			}
			cur = next
		}
	}
	return hubs
}
