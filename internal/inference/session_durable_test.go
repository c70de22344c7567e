package inference

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// TestSessionDurablePersistResume is the tentpole property at the inference
// layer: prime → mutate → refresh with SessionDir set, kill the session (a
// clean Close here; the re-exec tests kill the process), ResumeSession, and
// the resumed resident state must serve bit-identical logits and support
// further delta refreshes that stay bit-identical to scratch.
func TestSessionDurablePersistResume(t *testing.T) {
	models := map[string]*gas.Model{
		"gcn":     gas.NewGCNModel("d-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(121)),
		"sage-ef": gas.NewSAGEModel("d-sage", gas.TaskSingleLabel, 6, 9, 3, 2, 4, tensor.NewRNG(122)),
		"gat":     gas.NewGATModel("d-gat", gas.TaskSingleLabel, 6, 4, 2, 3, 2, tensor.NewRNG(123)),
	}
	seed := int64(300)
	for name, m := range models {
		seed++
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			g := sessionTestGraph(seed, true)
			opts := Options{NumWorkers: 2, DeltaCutover: 1.1, SessionDir: dir}
			sess, err := NewSession(m, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sess.Durable() {
				t.Fatal("SessionDir set but session not durable")
			}
			if _, _, err := sess.Refresh(); err != nil {
				t.Fatal(err)
			}
			rng := tensor.NewRNG(seed * 3)
			var mark uint64
			for batch := 0; batch < 3; batch++ {
				if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), true)); err != nil {
					t.Fatal(err)
				}
				mark++
				sess.SetReplayMark(mark)
				if _, _, err := sess.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
			want := sess.Graph()
			sess.CloseDurable()

			resumed, ok, err := ResumeSession(m, opts)
			if err != nil || !ok {
				t.Fatalf("ResumeSession: ok=%v err=%v", ok, err)
			}
			defer resumed.CloseDurable()
			if !resumed.Primed() || resumed.Pending() {
				t.Fatalf("resumed session primed=%v pending=%v", resumed.Primed(), resumed.Pending())
			}
			if resumed.ReplayMark() != mark {
				t.Fatalf("resumed replay mark %d, want %d", resumed.ReplayMark(), mark)
			}
			if resumed.Graph().NumNodes != want.NumNodes || resumed.Graph().NumEdges != want.NumEdges {
				t.Fatalf("resumed graph %d/%d nodes/edges, want %d/%d",
					resumed.Graph().NumNodes, resumed.Graph().NumEdges, want.NumNodes, want.NumEdges)
			}
			// Resident logits must match a scratch pass over the same graph.
			res, kind, err := resumed.Refresh()
			if err != nil || kind != RefreshDelta {
				t.Fatalf("resumed idle refresh: kind=%v err=%v", kind, err)
			}
			scratch, err := RunPregel(m, resumed.Graph(), Options{NumWorkers: 2})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "resumed resident", res.Logits, scratch.Logits)
			// And the resumed slabs must carry further delta passes exactly.
			for batch := 0; batch < 2; batch++ {
				if _, err := resumed.Mutate(randomDelta(rng, resumed.Graph(), true)); err != nil {
					t.Fatal(err)
				}
				res, kind, err := resumed.Refresh()
				if err != nil || kind != RefreshDelta {
					t.Fatalf("post-resume batch %d: kind=%v err=%v", batch, kind, err)
				}
				scratch, err := RunPregel(m, resumed.Graph(), Options{NumWorkers: 2})
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, fmt.Sprintf("post-resume delta %d", batch), res.Logits, scratch.Logits)
			}
		})
	}
}

// TestResumeSessionColdStart: no directory, or a directory with no valid
// epoch, is a clean cold start — (nil, false, nil), no error.
func TestResumeSessionColdStart(t *testing.T) {
	if _, _, err := ResumeSession(nil, Options{}); err == nil {
		t.Fatal("empty SessionDir accepted")
	}
	dir := filepath.Join(t.TempDir(), "never-written")
	s, ok, err := ResumeSession(nil, Options{SessionDir: dir})
	if s != nil || ok || err != nil {
		t.Fatalf("cold start: s=%v ok=%v err=%v", s, ok, err)
	}
}

// TestResumeSessionShapeMismatch: an epoch persisted for one model must be
// refused by a model with different dims, not silently loaded.
func TestResumeSessionShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	m := gas.NewGCNModel("shape-a", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(131))
	sess, err := NewSession(m, sessionTestGraph(41, false), Options{NumWorkers: 2, SessionDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	sess.CloseDurable()
	other := gas.NewGCNModel("shape-b", gas.TaskSingleLabel, 6, 12, 3, 2, tensor.NewRNG(132))
	if _, ok, err := ResumeSession(other, Options{SessionDir: dir}); err == nil || ok {
		t.Fatalf("mismatched model resumed: ok=%v err=%v", ok, err)
	}
	threeLayer := gas.NewGCNModel("shape-c", gas.TaskSingleLabel, 6, 9, 3, 3, tensor.NewRNG(133))
	if _, ok, err := ResumeSession(threeLayer, Options{SessionDir: dir}); err == nil || ok {
		t.Fatalf("mismatched layer count resumed: ok=%v err=%v", ok, err)
	}
}

// TestSessionPersistFaultDegrades: a failing persist (the BeginHook seam the
// chaos tests crash at) must not corrupt the in-memory session — refreshes
// keep serving exact results, the failure is counted, and the next persist
// succeeds and covers the full state.
func TestSessionPersistFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	m := gas.NewGCNModel("pf-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(141))
	var mu sync.Mutex
	fail := true
	// Buffered past the test's two persists: the hook runs on the persister
	// goroutine and must never block it.
	outcomes := make(chan error, 4)
	opts := Options{
		NumWorkers: 2, DeltaCutover: 1.1, SessionDir: dir,
		SessionPersistBeginHook: func(mark uint64) error {
			mu.Lock()
			defer mu.Unlock()
			if fail {
				return fmt.Errorf("injected persist fault at mark %d", mark)
			}
			return nil
		},
		SessionPersistHook: func(epoch int, mark uint64, err error) { outcomes <- err },
	}
	sess, err := NewSession(m, sessionTestGraph(43, false), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.CloseDurable()
	// nextOutcome blocks on the persister's next report; the deadline only
	// bounds a failure.
	nextOutcome := func() error {
		t.Helper()
		select {
		case err := <-outcomes:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("persister never reported an outcome")
			return nil
		}
	}
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := nextOutcome(); err == nil {
		t.Fatal("injected persist fault not reported through the hook")
	}
	if ds := sess.DurableStats(); ds.Failures != 1 || ds.Epochs != 0 {
		t.Fatalf("after fault: %+v", ds)
	}
	// Nothing durable yet: resume must be a cold start.
	if _, ok, err := ResumeSession(m, Options{SessionDir: dir}); ok || err != nil {
		t.Fatalf("resume after failed persist: ok=%v err=%v", ok, err)
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	// The next pass persists the same (healthy) resident state.
	rng := tensor.NewRNG(142)
	if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), false)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := nextOutcome(); err != nil {
		t.Fatalf("recovered persist errored: %v", err)
	}
	if ds := sess.DurableStats(); ds.Epochs != 1 {
		t.Fatalf("after recovery: %+v", ds)
	}
	resumed, ok, err := ResumeSession(m, Options{SessionDir: dir})
	if err != nil || !ok {
		t.Fatalf("resume after recovery: ok=%v err=%v", ok, err)
	}
	defer resumed.CloseDurable()
	res, _, err := resumed.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := RunPregel(m, resumed.Graph(), Options{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "resume after recovered persist", res.Logits, scratch.Logits)
}

// sessionEpochs sets opts' SessionPersistHook to report, on the returned
// channel, the session's epoch count after every persist attempt.
func sessionEpochs(opts *Options) <-chan int {
	// Buffered past any test's persist count: the hook runs on the
	// persister goroutine and must never block it.
	landed := make(chan int, 16)
	opts.SessionPersistHook = func(epoch int, _ uint64, _ error) { landed <- epoch }
	return landed
}

// waitSessionEpochs blocks until the background persister reports n epochs
// written. The persister is latest-wins, so a test that wants one epoch per
// refresh lets each land before it refreshes again. The deadline only
// bounds a failure.
func waitSessionEpochs(t *testing.T, landed <-chan int, n int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case epoch := <-landed:
			if epoch >= n {
				return
			}
		case <-timeout:
			t.Fatalf("session epoch %d never landed", n)
		}
	}
}

// TestResumeSessionCorruptNewestEpoch: flipping bytes in the newest epoch
// file must push Load back to the previous valid epoch, whose earlier replay
// mark tells the caller to replay more WAL — never a hard failure while an
// older epoch survives.
func TestResumeSessionCorruptNewestEpoch(t *testing.T) {
	dir := t.TempDir()
	m := gas.NewGCNModel("cor-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(151))
	opts := Options{NumWorkers: 2, DeltaCutover: 1.1, SessionDir: dir}
	landed := sessionEpochs(&opts)
	sess, err := NewSession(m, sessionTestGraph(47, false), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitSessionEpochs(t, landed, 1)
	sess.SetReplayMark(1)
	rng := tensor.NewRNG(152)
	if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), false)); err != nil {
		t.Fatal(err)
	}
	firstGraph := sess.Graph()
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitSessionEpochs(t, landed, 2)
	sess.SetReplayMark(2)
	if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), false)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitSessionEpochs(t, landed, 3)
	sess.CloseDurable()

	epochs, err := filepath.Glob(filepath.Join(dir, "epoch-*.ckpt"))
	if err != nil || len(epochs) < 2 {
		t.Fatalf("want >=2 retained epochs, have %v (err=%v)", epochs, err)
	}
	newest := epochs[len(epochs)-1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(b) / 2; i < len(b)/2+16 && i < len(b); i++ {
		b[i] ^= 0xff
	}
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, ok, err := ResumeSession(m, opts)
	if err != nil || !ok {
		t.Fatalf("resume with corrupt newest: ok=%v err=%v", ok, err)
	}
	defer resumed.CloseDurable()
	if resumed.ReplayMark() != 1 {
		t.Fatalf("fell back to mark %d, want 1 (the previous epoch)", resumed.ReplayMark())
	}
	res, _, err := resumed.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := RunPregel(m, firstGraph, Options{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "fallback epoch resident", res.Logits, scratch.Logits)
}

// TestSessionMutateValidationPaths pins every ApplyDelta rejection reachable
// through Session.Mutate: each invalid delta must error, leave the graph
// pointer and pending flag untouched, and keep later refreshes exact.
func TestSessionMutateValidationPaths(t *testing.T) {
	m := gas.NewGCNModel("val-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(161))
	g := sessionTestGraph(53, false)
	sess, err := NewSession(m, g, Options{NumWorkers: 2, DeltaCutover: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	n := int32(g.NumNodes)
	bad := map[string]graph.Delta{
		"feature node out of range": {Features: []graph.FeatureUpdate{{Node: n, Features: make([]float32, 6)}}},
		"feature node negative":     {Features: []graph.FeatureUpdate{{Node: -1, Features: make([]float32, 6)}}},
		"feature dim mismatch":      {Features: []graph.FeatureUpdate{{Node: 0, Features: make([]float32, 5)}}},
		"new node dim mismatch":     {AddNodes: []graph.NodeAdd{{Features: make([]float32, 7)}}},
		"edge src out of range":     {AddEdges: []graph.EdgeAdd{{Src: n + 5, Dst: 0}}},
		"edge dst out of range":     {AddEdges: []graph.EdgeAdd{{Src: 0, Dst: n + 5}}},
		"edge feature mismatch":     {AddEdges: []graph.EdgeAdd{{Src: 0, Dst: 1, Features: []float32{1}}}},
		"remove nonexistent":        {RemoveEdges: []graph.EdgeKey{{Src: 0, Dst: 0}}},
		"remove out of range":       {RemoveEdges: []graph.EdgeKey{{Src: -2, Dst: 0}}},
	}
	for label, d := range bad {
		before := sess.Graph()
		if _, err := sess.Mutate(d); err == nil {
			t.Fatalf("%s: not rejected", label)
		}
		if sess.Graph() != before {
			t.Fatalf("%s: failed mutate advanced the graph", label)
		}
		if sess.Pending() {
			t.Fatalf("%s: failed mutate left the session pending", label)
		}
	}
	// The empty delta is a documented no-op, not an error.
	eff, err := sess.Mutate(graph.Delta{})
	if err != nil || eff.NumNodes != int(n) {
		t.Fatalf("empty delta: eff=%+v err=%v", eff, err)
	}
	if sess.Pending() {
		t.Fatal("empty delta marked the session pending")
	}
	// After the rejection gauntlet the session still computes exactly.
	rng := tensor.NewRNG(162)
	if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), true)); err != nil {
		t.Fatal(err)
	}
	res, kind, err := sess.Refresh()
	if err != nil || kind != RefreshDelta {
		t.Fatalf("kind=%v err=%v", kind, err)
	}
	scratch, err := RunPregel(m, sess.Graph(), Options{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "post-gauntlet delta", res.Logits, scratch.Logits)
}

// TestSessionPersisterNeverBlocksRefresh is the slow-disk property: with the
// persister stuck inside the first epoch's write, five Mutate+Refresh rounds
// complete without waiting for it — each later capture takes the unstarted
// job back out of the mailbox and captures over it — and a CloseDurable
// called while the newest state still sits in the mailbox persists it before
// returning: what resumes is the last refresh, mark and bytes.
func TestSessionPersisterNeverBlocksRefresh(t *testing.T) {
	dir := t.TempDir()
	m := gas.NewGCNModel("slow-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(181))
	entered := make(chan uint64, 8) // one slot per persist this test can start
	release := make(chan struct{})
	opts := Options{
		NumWorkers: 2, DeltaCutover: 1.1, SessionDir: dir,
		SessionPersistBeginHook: func(mark uint64) error {
			entered <- mark
			<-release
			return nil
		},
	}
	sess, err := NewSession(m, sessionTestGraph(59, false), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	if mark := <-entered; mark != 0 {
		t.Fatalf("first persist carries mark %d, want the prime's 0", mark)
	}

	const rounds = 5
	var last *Result
	finished := make(chan error, 1)
	go func() {
		rng := tensor.NewRNG(182)
		for r := uint64(1); r <= rounds; r++ {
			if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), true)); err != nil {
				finished <- err
				return
			}
			sess.SetReplayMark(r)
			res, _, err := sess.Refresh()
			if err != nil {
				finished <- err
				return
			}
			last = res
		}
		finished <- nil
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("refreshes waited on the blocked persister")
	}
	// The first round found an idle buffer set; each later one captured over
	// its predecessor. Nothing has reached disk yet.
	if ds := sess.DurableStats(); ds.Epochs != 0 || ds.Superseded != rounds-1 || ds.Failures != 0 {
		t.Fatalf("while blocked: %+v, want 0 epochs and %d superseded", ds, rounds-1)
	}

	closing := make(chan struct{})
	go func() {
		<-closing
		close(release)
	}()
	close(closing)
	sess.CloseDurable()
	if got := <-entered; got != rounds {
		t.Fatalf("second persist carries mark %d, want the newest (%d)", got, rounds)
	}

	resumed, ok, err := ResumeSession(m, Options{NumWorkers: 2, SessionDir: dir})
	if err != nil || !ok {
		t.Fatalf("resume: ok=%v err=%v", ok, err)
	}
	defer resumed.CloseDurable()
	if resumed.ReplayMark() != rounds {
		t.Fatalf("resumed mark %d, want %d", resumed.ReplayMark(), rounds)
	}
	res, _, err := resumed.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "resumed newest state", res.Logits, last.Logits)
	epochs, err := filepath.Glob(filepath.Join(dir, "epoch-*.ckpt"))
	if err != nil || len(epochs) != 2 {
		t.Fatalf("epochs on disk: %v (err=%v), want the prime's and the newest", epochs, err)
	}
}

// setEpochVersion rewrites the newest epoch under dir as a new epoch whose
// session meta claims version v — the shape a session dir written by an
// older release has on disk.
func setEpochVersion(t *testing.T, dir string, v uint32) {
	t.Helper()
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	step, segs, found, err := st.Load()
	if err != nil || !found {
		t.Fatalf("no epoch to rewrite: found=%v err=%v", found, err)
	}
	for _, sg := range segs {
		if sg.Name == "session-meta" {
			binary.LittleEndian.PutUint32(sg.Data, v)
		}
	}
	if err := st.Save(step, segs); err != nil {
		t.Fatal(err)
	}
}

// TestResumeSessionRefusesOldEpochVersion: an epoch written in an older
// format — version 1 (gob graph) or version 2 (no GAT message slabs) — is
// an error naming both versions — never a panic, and never a silent cold
// start, which would drop mutations the epoch holds but whose WAL records
// are already truncated.
func TestResumeSessionRefusesOldEpochVersion(t *testing.T) {
	for _, old := range []uint32{1, 2} {
		dir := t.TempDir()
		m := gas.NewGCNModel("old-epoch", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(141))
		sess, err := NewSession(m, sessionTestGraph(43, false), Options{NumWorkers: 2, SessionDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.Refresh(); err != nil {
			t.Fatal(err)
		}
		sess.CloseDurable()
		setEpochVersion(t, dir, old)
		s, ok, err := ResumeSession(m, Options{SessionDir: dir})
		if err == nil || ok || s != nil {
			t.Fatalf("version-%d epoch resumed: ok=%v err=%v", old, ok, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", old)) || !strings.Contains(msg, fmt.Sprintf("want %d", sessionMetaVersion)) {
			t.Fatalf("error %q does not name both versions", msg)
		}
	}
}

// persistAllocBound is what a steady-state persistOne may allocate: the
// store's per-file bookkeeping (file handles, the directory listing behind
// pruning, the manifest), none of it proportional to the epoch. The test
// epoch is over 60x larger, so a single re-made segment buffer fails it.
const persistAllocBound = 16 << 10

// TestSessionPersistSteadyStateAllocs: once one epoch has grown the
// persister's encode buffers, a second epoch of the same shape reuses them
// all — no graph, slab or meta buffer is re-made.
func TestSessionPersistSteadyStateAllocs(t *testing.T) {
	m := gas.NewGCNModel("alloc", gas.TaskSingleLabel, 32, 32, 3, 2, tensor.NewRNG(151))
	g := datagen.Generate(datagen.Config{
		Name: "alloc", Nodes: 3000, AvgDegree: 5, Skew: datagen.SkewIn, Exponent: 1.6,
		FeatureDim: 32, NumClasses: 3, Seed: 152,
	}).Graph
	opts := Options{NumWorkers: 2, SessionDir: t.TempDir(), CheckpointSync: checkpoint.SyncNever}
	landed := sessionEpochs(&opts)
	sess, err := NewSession(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.CloseDurable()
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitSessionEpochs(t, landed, 1)
	// The persister goroutine is idle now (nothing in its mailbox), so the
	// test may drive its encode path directly.
	d := sess.dur
	L := m.NumLayers()
	job := &sessionPersistJob{g: sess.Graph(), layers: sess.layers, msgs: make([]*tensor.Matrix, L), mark: 1}
	for k := 0; k < L; k++ {
		if sess.emits[k] {
			job.msgs[k] = sess.msgs[k]
		}
	}
	epochBytes := d.store.BytesWritten()
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := d.persistOne(m, job); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	if epochBytes < 60*persistAllocBound {
		t.Fatalf("test epoch is only %d bytes; grow it past %d", epochBytes, 60*persistAllocBound)
	}
	if least > persistAllocBound {
		t.Fatalf("steady-state persist allocated %d bytes (epoch %d bytes), want <= %d", least, epochBytes, persistAllocBound)
	}
	t.Logf("steady-state persist allocated %d bytes for a %d-byte epoch", least, epochBytes)
}
