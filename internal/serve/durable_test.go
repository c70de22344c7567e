package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/pregel"
)

// durableServer builds a started server with SessionDir wired, plus its
// HTTP front end. Unlike newTestServer it does not t.Cleanup-close — the
// warm-restart tests close and reopen explicitly.
func durableServer(t *testing.T, dir string, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	g, m := testFixture(t)
	cfg := Config{
		Model: m, Graph: g,
		Refresh:      inference.Options{NumWorkers: 3, DeltaCutover: 1.1},
		QueryWorkers: 2,
		SessionDir:   dir,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	wake, notify := newWake()
	user := cfg.Refresh.SessionPersistHook
	cfg.Refresh.SessionPersistHook = func(epoch int, mark uint64, err error) {
		if user != nil {
			user(epoch, mark, err)
		}
		notify()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	armWake(t, s, wake, notify)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

// TestDurableConfigErrors: a server asked to be durable must never silently
// fall back to a lossy mode — incompatible configs fail construction.
func TestDurableConfigErrors(t *testing.T) {
	g, m := testFixture(t)
	if _, err := New(Config{Model: m, Graph: g, SessionDir: t.TempDir(), DisableIncremental: true}); err == nil {
		t.Fatal("SessionDir + DisableIncremental accepted")
	}
	if _, err := New(Config{Model: m, Graph: g, SessionDir: t.TempDir(),
		Refresh: inference.Options{ShadowNodes: true}}); err == nil {
		t.Fatal("SessionDir + session-incompatible refresh options accepted")
	}
}

// TestDurableRefusesOldEpochVersion: a SessionDir whose newest epoch was
// written in an older format fails New with an error naming both versions.
// Cold-starting past it would silently drop the mutations that epoch holds
// whose WAL records are already truncated.
func TestDurableRefusesOldEpochVersion(t *testing.T) {
	dir := t.TempDir()
	a, aTS := durableServer(t, dir, nil)
	if st, _ := postMutate(t, aTS, `{"features":[{"node":3,"features":[1,0,-1,0.5,0,2]}]}`); st != 202 {
		t.Fatalf("mutate: %d", st)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, a, "epoch persist + WAL truncation", func() bool {
		m := a.Metrics()
		return m.SessionEpochs >= 2 && m.WALRecords == 0
	})
	aTS.Close()
	a.Close()

	st, err := checkpoint.NewStore(sessionSlabDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	step, segs, found, err := st.Load()
	if err != nil || !found {
		t.Fatalf("no epoch to rewrite: found=%v err=%v", found, err)
	}
	for _, sg := range segs {
		if sg.Name == "session-meta" {
			binary.LittleEndian.PutUint32(sg.Data, 1)
		}
	}
	if err := st.Save(step, segs); err != nil {
		t.Fatal(err)
	}

	g, m := testFixture(t)
	_, err = New(Config{Model: m, Graph: g, Refresh: inference.Options{NumWorkers: 3, DeltaCutover: 1.1}, SessionDir: dir})
	if err == nil {
		t.Fatal("New cold-started past a version-1 session epoch")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "want 4") {
		t.Fatalf("error %q does not name both versions", msg)
	}
}

// TestDurableWarmRestartBitIdentical is the tentpole property at the serve
// layer, without SIGKILL (the cmd/serve re-exec tests add that): a server
// acknowledges mutations — some refreshed into durable slabs, one still
// only in the WAL — then closes; a second server on the same SessionDir must
// resume, replay, delta-refresh, and serve /v1/logits byte-identical to a
// never-restarted oracle, losing nothing.
func TestDurableWarmRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	a, aTS := durableServer(t, dir, nil)
	if !a.Incremental() || a.Metrics().SessionResumed {
		t.Fatalf("fresh durable server: incremental=%v resumed=%v", a.Incremental(), a.Metrics().SessionResumed)
	}
	if m := a.Metrics(); m.ResumeLoadMs != 0 || m.ResumeGraphMs != 0 || m.ResumeSlabsMs != 0 {
		t.Fatalf("cold start reports resume phases %v/%v/%v ms, want 0", m.ResumeLoadMs, m.ResumeGraphMs, m.ResumeSlabsMs)
	}
	g0 := a.cfg.Graph
	newID := int32(g0.NumNodes)

	// Batch 1+2 drain into a delta refresh (slab-durable afterwards).
	if st, _ := postMutate(t, aTS, fmt.Sprintf(
		`{"features":[{"node":3,"features":[1,0,-1,0.5,0,2]}],
		  "add_nodes":[{"features":[0.1,0.2,0.3,0.4,0.5,0.6]}],
		  "add_edges":[{"src":%d,"dst":7},{"src":7,"dst":%d}]}`, newID, newID)); st != 202 {
		t.Fatalf("batch 1: %d", st)
	}
	if st, _ := postMutate(t, aTS, `{"features":[{"node":11,"features":[2,2,2,-2,-2,-2]}]}`); st != 202 {
		t.Fatalf("batch 2: %d", st)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, a, "epoch persist + WAL truncation", func() bool {
		m := a.Metrics()
		return m.SessionEpochs >= 2 && m.WALRecords == 0
	})
	// Batch 3 stays WAL-only: acknowledged, never refreshed in this process.
	if st, _ := postMutate(t, aTS, `{"features":[{"node":5,"features":[-3,0,3,0,-3,0]}]}`); st != 202 {
		t.Fatalf("batch 3: %d", st)
	}
	if m := a.Metrics(); !m.Durable || m.WALRecords != 1 || m.WALAppends != 3 {
		t.Fatalf("WAL state before restart: %+v", m)
	}
	aTS.Close()
	a.Close()
	if got := a.Metrics().MutationsLost; got != 0 {
		t.Fatalf("durable close lost %d mutations", got)
	}

	b, bTS := durableServer(t, dir, nil)
	defer func() { bTS.Close(); b.Close() }()
	m := b.Metrics()
	if !m.SessionResumed || m.WALReplayed != 1 || m.LastRefreshKind != "delta" {
		t.Fatalf("restarted server: resumed=%v replayed=%d kind=%q", m.SessionResumed, m.WALReplayed, m.LastRefreshKind)
	}
	if m.LastReplayMs < 0 {
		t.Fatalf("last_replay_ms=%v", m.LastReplayMs)
	}
	// Restart-to-ready decomposes: every resume phase ran and is reported
	// on /v1/stats under its own key.
	resp, err := http.Get(bTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"resume_load_ms", "resume_graph_ms", "resume_slabs_ms"} {
		if v, ok := raw[k].(float64); !ok || v <= 0 {
			t.Fatalf("/v1/stats %s = %v, want > 0 after a resume", k, raw[k])
		}
	}

	// Oracle: all three batches applied offline, computed from scratch.
	og := g0
	for _, d := range []graph.Delta{
		{
			Features: []graph.FeatureUpdate{{Node: 3, Features: []float32{1, 0, -1, 0.5, 0, 2}}},
			AddNodes: []graph.NodeAdd{{Features: []float32{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}}},
			AddEdges: []graph.EdgeAdd{{Src: newID, Dst: 7}, {Src: 7, Dst: newID}},
		},
		{Features: []graph.FeatureUpdate{{Node: 11, Features: []float32{2, 2, 2, -2, -2, -2}}}},
		{Features: []graph.FeatureUpdate{{Node: 5, Features: []float32{-3, 0, 3, 0, -3, 0}}}},
	} {
		var err error
		og, _, err = graph.ApplyDelta(og, d)
		if err != nil {
			t.Fatal(err)
		}
	}
	want, err := inference.RunPregel(b.cfg.Model, og, inference.Options{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetchLogits(t, bTS), logitsBytes(want.Logits)) {
		t.Fatal("warm-restarted store bytes differ from the never-restarted oracle")
	}
	// The WAL-only batch was consumed by the restart's delta pass; its
	// truncation follows the pass's epoch.
	waitFor(t, b, "post-restart truncation", func() bool { return b.Metrics().WALRecords == 0 })
}

// TestDurableFaultWALAppend: an injected WAL-append failure refuses the
// mutation with a 500 whose body states nothing was staged — and a retry
// succeeds, because the fault consumed its one occurrence.
func TestDurableFaultWALAppend(t *testing.T) {
	s, ts := durableServer(t, t.TempDir(), func(c *Config) {
		c.Refresh.Faults = &pregel.FaultPlan{Crashes: []pregel.Fault{
			{Superstep: 0, Point: pregel.FaultWALAppend},
		}}
	})
	defer func() { ts.Close(); s.Close() }()
	body := `{"features":[{"node":1,"features":[1,1,1,1,1,1]}]}`
	st, mr := postMutate(t, ts, body)
	if st != 500 || mr.Error == "" {
		t.Fatalf("faulted append: status=%d err=%q", st, mr.Error)
	}
	if m := s.Metrics(); m.WALAppendFailures != 1 || m.Mutations != 0 || m.PendingDeltas != 0 || m.WALRecords != 0 {
		t.Fatalf("after faulted append: %+v", m)
	}
	if st, _ := postMutate(t, ts, body); st != 202 {
		t.Fatalf("retry after fault: %d", st)
	}
	if m := s.Metrics(); m.WALRecords != 1 || m.Mutations != 1 {
		t.Fatalf("after retry: %+v", m)
	}
}

// TestDurableFaultSlabPersist: an aborted epoch persist must leave the WAL
// untruncated (the records still carry the state) and the next refresh's
// persist covers everything.
func TestDurableFaultSlabPersist(t *testing.T) {
	s, ts := durableServer(t, t.TempDir(), func(c *Config) {
		// Occurrence 0 is the initial prime's persist; 1 is the delta pass's.
		c.Refresh.Faults = &pregel.FaultPlan{Crashes: []pregel.Fault{
			{Superstep: 1, Point: pregel.FaultSlabPersist},
		}}
	})
	defer func() { ts.Close(); s.Close() }()
	waitFor(t, s, "prime persist", func() bool { return s.Metrics().SessionEpochs == 1 })

	if st, _ := postMutate(t, ts, `{"features":[{"node":2,"features":[4,4,4,4,4,4]}]}`); st != 202 {
		t.Fatal("mutate failed")
	}
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, "aborted persist", func() bool { return s.Metrics().SessionPersistFailures == 1 })
	if m := s.Metrics(); m.WALRecords != 1 || m.SessionEpochs != 1 {
		t.Fatalf("after aborted persist: %+v", m)
	}
	// The next refresh (another mutation) persists and truncates both records.
	if st, _ := postMutate(t, ts, `{"features":[{"node":4,"features":[5,5,5,5,5,5]}]}`); st != 202 {
		t.Fatal("mutate failed")
	}
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, "recovered persist + truncation", func() bool {
		m := s.Metrics()
		return m.SessionEpochs == 2 && m.WALRecords == 0
	})
}

// TestDurableFaultWALTruncateDedup: a skipped truncation leaves consumed
// records in the WAL; a restart must dedup them against the resumed epoch's
// replay mark — applying them again would corrupt the store.
func TestDurableFaultWALTruncateDedup(t *testing.T) {
	dir := t.TempDir()
	a, aTS := durableServer(t, dir, func(c *Config) {
		// Occurrence 0 of wal-truncate is the first mark>0 truncation (the
		// prime epoch's mark-0 persist never truncates).
		c.Refresh.Faults = &pregel.FaultPlan{Crashes: []pregel.Fault{
			{Superstep: 0, Point: pregel.FaultWALTruncate},
		}}
	})
	if st, _ := postMutate(t, aTS, `{"features":[{"node":9,"features":[7,0,-7,0,7,0]}]}`); st != 202 {
		t.Fatal("mutate failed")
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, a, "skipped truncation", func() bool { return a.Metrics().WALTruncSkipped == 1 })
	if m := a.Metrics(); m.WALRecords != 1 {
		t.Fatalf("truncation not skipped: %+v", m)
	}
	aTS.Close()
	a.Close()

	b, bTS := durableServer(t, dir, nil)
	defer func() { bTS.Close(); b.Close() }()
	// The lingering record is at or below the resumed replay mark: it must
	// be skipped, not re-staged.
	if m := b.Metrics(); !m.SessionResumed || m.WALReplayed != 0 || m.PendingDeltas != 0 {
		t.Fatalf("restart after skipped truncation: %+v", m)
	}
	g1, _, err := graph.ApplyDelta(b.cfg.Graph, graph.Delta{
		Features: []graph.FeatureUpdate{{Node: 9, Features: []float32{7, 0, -7, 0, 7, 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := inference.RunPregel(b.cfg.Model, g1, inference.Options{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetchLogits(t, bTS), logitsBytes(want.Logits)) {
		t.Fatal("replay after skipped truncation double-applied or lost the mutation")
	}
}

// TestMutateLossAccounting pins the satellite: a non-incremental server
// counts 409-refused mutations (never staged, never lost) and says so in the
// body; a WAL-less incremental server counts acknowledged batches it drops
// at shutdown as lost; a durable server loses nothing.
func TestMutateLossAccounting(t *testing.T) {
	off, offTS := newTestServer(t, func(c *Config) { c.DisableIncremental = true })
	st, mr := postMutate(t, offTS, `{"features":[{"node":1,"features":[0,0,0,0,0,0]}]}`)
	if st != 409 || !bytes.Contains([]byte(mr.Error), []byte("nothing is lost")) {
		t.Fatalf("409 body must state nothing was staged or lost: status=%d err=%q", st, mr.Error)
	}
	if m := off.Metrics(); m.MutationsUnsupported != 1 || m.MutationsLost != 0 {
		t.Fatalf("non-incremental accounting: %+v", m)
	}

	lossy, lossyTS := newTestServer(t, nil)
	if st, _ := postMutate(t, lossyTS, `{"features":[{"node":1,"features":[9,9,9,9,9,9]}]}`); st != 202 {
		t.Fatal("stage failed")
	}
	lossyTS.Close()
	lossy.Close()
	if m := lossy.Metrics(); m.MutationsLost != 1 {
		t.Fatalf("WAL-less close must count the acked-but-unrefreshed batch as lost: %+v", m)
	}
}

// TestConcurrentMutateDuringRefresh hammers the stagedMu handoff — mutations
// staging while refreshes drain concurrently — and then proves no batch was
// lost or doubled: the final store equals an offline application of every
// acknowledged update. Each goroutine owns distinct nodes so the oracle is
// order-independent. Run under -race this is the staging-handoff race test.
func TestConcurrentMutateDuringRefresh(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Refresh = inference.Options{NumWorkers: 3, DeltaCutover: 1.1}
	})
	const goroutines = 8
	const perG = 6
	errs := make(chan error, goroutines)
	var mutators sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		mutators.Add(1)
		go func(gi int) {
			defer mutators.Done()
			for i := 0; i < perG; i++ {
				node := gi*perG + i // distinct node per update
				val := float32(gi + 1)
				body := fmt.Sprintf(`{"features":[{"node":%d,"features":[%g,%g,%g,%g,%g,%g]}]}`,
					node, val, -val, val, -val, val, -val)
				resp, err := http.Post(ts.URL+"/v1/mutate", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 202 {
					errs <- fmt.Errorf("mutate %d: status %d", node, resp.StatusCode)
					return
				}
			}
		}(gi)
	}
	// Refresh continuously while mutations land, racing the drain handoff.
	stopRefresh := make(chan struct{})
	var refresher sync.WaitGroup
	refresher.Add(1)
	go func() {
		defer refresher.Done()
		for {
			select {
			case <-stopRefresh:
				return
			default:
				s.TryRefreshAsync()
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	mutators.Wait()
	close(stopRefresh)
	refresher.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Drain whatever is still staged with one final synchronous refresh.
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if a, r := s.m.mutationsApplied.Load(), s.m.mutationsRejected.Load(); a != goroutines*perG || r != 0 {
		t.Fatalf("applied=%d rejected=%d, want %d/0", a, r, goroutines*perG)
	}
	// Oracle: every update applied once, order irrelevant (distinct nodes).
	var d graph.Delta
	for gi := 0; gi < goroutines; gi++ {
		for i := 0; i < perG; i++ {
			val := float32(gi + 1)
			d.Features = append(d.Features, graph.FeatureUpdate{
				Node:     int32(gi*perG + i),
				Features: []float32{val, -val, val, -val, val, -val},
			})
		}
	}
	og, _, err := graph.ApplyDelta(s.cfg.Graph, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inference.RunPregel(s.cfg.Model, og, inference.Options{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetchLogits(t, ts), logitsBytes(want.Logits)) {
		t.Fatal("concurrent mutate-during-refresh lost or doubled an acknowledged batch")
	}
}

// TestWALDeltaCodecRoundTrip pins the WAL payload encoding of a delta batch.
func TestWALDeltaCodecRoundTrip(t *testing.T) {
	in := graph.Delta{
		Features: []graph.FeatureUpdate{{Node: 4, Features: []float32{1, -2, 3}}},
		AddNodes: []graph.NodeAdd{{Features: []float32{0.5, 0.25, -0.125}}},
		AddEdges: []graph.EdgeAdd{
			{Src: 1, Dst: 2, Features: []float32{9}},
			{Src: 2, Dst: 1},
		},
		RemoveEdges: []graph.EdgeKey{{Src: 0, Dst: 3}},
	}
	out, err := decodeDelta(encodeDelta(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Features) != 1 || out.Features[0].Node != 4 || !bitEqual(out.Features[0].Features, in.Features[0].Features) {
		t.Fatalf("features: %+v", out.Features)
	}
	if len(out.AddNodes) != 1 || !bitEqual(out.AddNodes[0].Features, in.AddNodes[0].Features) {
		t.Fatalf("add nodes: %+v", out.AddNodes)
	}
	if len(out.AddEdges) != 2 || out.AddEdges[0].Src != 1 || out.AddEdges[1].Features != nil {
		t.Fatalf("add edges: %+v", out.AddEdges)
	}
	if len(out.RemoveEdges) != 1 || out.RemoveEdges[0] != (graph.EdgeKey{Src: 0, Dst: 3}) {
		t.Fatalf("remove edges: %+v", out.RemoveEdges)
	}
	// Hostile payloads error, never panic.
	if _, err := decodeDelta([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := decodeDelta(append(encodeDelta(nil, in), 0xee)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	empty, err := decodeDelta(encodeDelta(nil, graph.Delta{}))
	if err != nil || !empty.Empty() {
		t.Fatalf("empty delta round trip: %+v err=%v", empty, err)
	}
}

// TestDurableSlowDiskNeverBlocksRefresh: with the epoch writer stuck (the
// slow-disk case), five mutate+refresh rounds all publish their snapshots —
// no refresh waits on disk — while the WAL keeps every record, because none
// of their states is durable yet. Once the writer resumes, the newest state
// is the one persisted, the four it superseded are counted, and the WAL is
// truncated through the newest mark; a restart then resumes that state and
// replays nothing.
func TestDurableSlowDiskNeverBlocksRefresh(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{}, 8) // one slot per persist this test can start
	release := make(chan struct{})
	a, aTS := durableServer(t, dir, func(c *Config) {
		c.Refresh.SessionPersistBeginHook = func(uint64) error {
			entered <- struct{}{}
			<-release
			return nil
		}
	})
	<-entered // the prime's epoch is now stuck in its write

	const rounds = 5
	for r := 0; r < rounds; r++ {
		body := fmt.Sprintf(`{"features":[{"node":%d,"features":[%d,1,-1,0,2,0]}],"add_edges":[{"src":%d,"dst":%d}]}`, 3+r, r, 40+r, 50+r)
		if st, _ := postMutate(t, aTS, body); st != 202 {
			t.Fatalf("round %d: mutate status %d", r, st)
		}
		if err := a.Refresh(); err != nil {
			t.Fatal(err)
		}
		if got := a.Store().Epoch; got != int64(r+2) {
			t.Fatalf("round %d: store epoch %d, want %d", r, got, r+2)
		}
	}
	if m := a.Metrics(); m.SessionEpochs != 0 || m.SessionEpochsSuperseded != rounds-1 || m.WALRecords != rounds {
		t.Fatalf("while the writer is stuck: epochs=%d superseded=%d wal_records=%d, want 0/%d/%d",
			m.SessionEpochs, m.SessionEpochsSuperseded, m.WALRecords, rounds-1, rounds)
	}
	want := fetchLogits(t, aTS)

	close(release)
	waitFor(t, a, "newest epoch + WAL truncation through it", func() bool {
		m := a.Metrics()
		return m.SessionEpochs == 2 && m.WALRecords == 0
	})
	if m := a.Metrics(); m.SessionPersistFailures != 0 || m.SessionEpochsSuperseded != rounds-1 {
		t.Fatalf("after release: %+v", m)
	}
	aTS.Close()
	a.Close()

	b, bTS := durableServer(t, dir, nil)
	defer func() { bTS.Close(); b.Close() }()
	if m := b.Metrics(); !m.SessionResumed || m.WALReplayed != 0 || m.MutationsLost != 0 {
		t.Fatalf("restart: resumed=%v replayed=%d lost=%d, want true/0/0", m.SessionResumed, m.WALReplayed, m.MutationsLost)
	}
	if !bytes.Equal(fetchLogits(t, bTS), want) {
		t.Fatal("restarted store differs from the last refresh before the restart")
	}
}
