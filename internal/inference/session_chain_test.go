package inference

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/datagen"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/tensor"
)

// chainTestGraph is large enough that a few-node batch dirties a small
// share of the rows, so delta refreshes persist links rather than bases.
func chainTestGraph(seed int64) *graph.Graph {
	return datagen.Generate(datagen.Config{
		Name: "chain", Nodes: 600, AvgDegree: 4, Skew: datagen.SkewIn, Exponent: 1.6,
		FeatureDim: 6, NumClasses: 3, Seed: seed, EdgeFeature: true,
	}).Graph
}

// crashCopy copies a session dir's committed files (bases, links, the
// manifest) to a fresh dir: what a SIGKILL with the persister idle leaves,
// without the fold a clean CloseDurable writes.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".ckpt" && e.Name() != "MANIFEST" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// assertResumedEquals checks a resumed session against the live one it was
// persisted from: same replay mark, a graph that encodes to the same bytes,
// and bit-identical resident logits.
func assertResumedEquals(t *testing.T, label string, resumed, live *Session, liveLogits *tensor.Matrix) {
	t.Helper()
	if resumed.ReplayMark() != live.ReplayMark() {
		t.Fatalf("%s: resumed mark %d, live %d", label, resumed.ReplayMark(), live.ReplayMark())
	}
	if !bytes.Equal(resumed.Graph().AppendEncoding(nil), live.Graph().AppendEncoding(nil)) {
		t.Fatalf("%s: resumed graph encodes differently from the live graph", label)
	}
	res, _, err := resumed.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, label, res.Logits, liveLogits)
}

// TestSessionChainResumeBitIdentical: over a seeded mutation stream, the
// state a crash leaves after every refresh — a base plus its chain, folds
// included — resumes to exactly the live session: graph bytes, replay mark
// and logits.
func TestSessionChainResumeBitIdentical(t *testing.T) {
	models := map[string]*gas.Model{
		"gcn":     gas.NewGCNModel("c-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(211)),
		"sage-ef": gas.NewSAGEModel("c-sage", gas.TaskSingleLabel, 6, 9, 3, 2, 4, tensor.NewRNG(212)),
		"gat":     gas.NewGATModel("c-gat", gas.TaskSingleLabel, 6, 4, 2, 3, 2, tensor.NewRNG(213)),
	}
	seed := int64(500)
	for name, m := range models {
		seed++
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{NumWorkers: 2, DeltaCutover: 1.1, SessionDir: dir, CheckpointSync: checkpoint.SyncNever}
			landed := sessionEpochs(&opts)
			sess, err := NewSession(m, chainTestGraph(seed), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.CloseDurable()
			if _, _, err := sess.Refresh(); err != nil {
				t.Fatal(err)
			}
			waitSessionEpochs(t, landed, 1)
			rng := tensor.NewRNG(seed * 7)
			var links int64
			const rounds = 30
			for r := 1; r <= rounds; r++ {
				// Two batches per refresh: a link carries every batch applied
				// since the previous one.
				for b := 0; b < 2; b++ {
					if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), true)); err != nil {
						t.Fatal(err)
					}
				}
				sess.SetReplayMark(uint64(r))
				res, kind, err := sess.Refresh()
				if err != nil || kind != RefreshDelta {
					t.Fatalf("round %d: kind=%v err=%v", r, kind, err)
				}
				waitSessionEpochs(t, landed, r+1)
				links = max(links, sess.DurableStats().Links)

				resumed, ok, err := ResumeSession(m, Options{NumWorkers: 2, SessionDir: crashCopy(t, dir)})
				if err != nil || !ok {
					t.Fatalf("round %d resume: ok=%v err=%v", r, ok, err)
				}
				assertResumedEquals(t, fmt.Sprintf("round %d", r), resumed, sess, res.Logits)
				resumed.CloseDurable()
			}
			if ds := sess.DurableStats(); links < 2 || ds.Folds < 1 || ds.Failures != 0 {
				t.Fatalf("stream never exercised both a chain and a fold: longest chain %d, %+v", links, ds)
			}
		})
	}
}

// TestResumeSessionTornNewestLink: a torn or corrupt newest link ends the
// chain at the link before it. Resume lands on that link's lower mark, and
// replaying the batches above it — what the serving layer's WAL holds —
// restores the live state exactly.
func TestResumeSessionTornNewestLink(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"torn": func(b []byte) []byte { return b[:len(b)-9] },
		"corrupt": func(b []byte) []byte {
			for i := len(b) / 2; i < len(b)/2+8; i++ {
				b[i] ^= 0x5a
			}
			return b
		},
	}
	m := gas.NewGCNModel("torn-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(221))
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{NumWorkers: 2, DeltaCutover: 1.1, SessionDir: dir}
			landed := sessionEpochs(&opts)
			sess, err := NewSession(m, chainTestGraph(222), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.CloseDurable()
			if _, _, err := sess.Refresh(); err != nil {
				t.Fatal(err)
			}
			waitSessionEpochs(t, landed, 1)
			rng := tensor.NewRNG(223)
			var wal []graph.Delta // wal[i] carries mark i+1
			var last *Result
			for r := 1; r <= 3; r++ {
				d := randomDelta(rng, sess.Graph(), true)
				wal = append(wal, d)
				if _, err := sess.Mutate(d); err != nil {
					t.Fatal(err)
				}
				sess.SetReplayMark(uint64(r))
				if last, _, err = sess.Refresh(); err != nil {
					t.Fatal(err)
				}
				waitSessionEpochs(t, landed, r+1)
			}
			if ds := sess.DurableStats(); ds.Links != 3 {
				t.Fatalf("want a base and three links on disk, have %+v", ds)
			}
			crashed := crashCopy(t, dir)
			newest, err := filepath.Glob(filepath.Join(crashed, "link-*-00000003.ckpt"))
			if err != nil || len(newest) != 1 {
				t.Fatalf("newest link: %v (err=%v)", newest, err)
			}
			b, err := os.ReadFile(newest[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newest[0], hurt(b), 0o644); err != nil {
				t.Fatal(err)
			}

			resumed, ok, err := ResumeSession(m, Options{NumWorkers: 2, SessionDir: crashed})
			if err != nil || !ok {
				t.Fatalf("resume: ok=%v err=%v", ok, err)
			}
			defer resumed.CloseDurable()
			if resumed.ReplayMark() != 2 {
				t.Fatalf("resumed at mark %d, want 2 (the newest valid link)", resumed.ReplayMark())
			}
			for _, d := range wal[resumed.ReplayMark():] {
				if _, err := resumed.Mutate(d); err != nil {
					t.Fatal(err)
				}
			}
			resumed.SetReplayMark(3)
			assertResumedEquals(t, "after replay", resumed, sess, last.Logits)
		})
	}
}

// readLink parses a link file's row ids and batch count.
func readLink(t *testing.T, dir string, base, idx int) (ids []int32, batches int) {
	t.Helper()
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, segs, err := st.LoadLink(base, idx)
	if err != nil {
		t.Fatal(err)
	}
	bySeg := segmentMap(segs)
	r := checkpoint.NewReader(bySeg["link-meta"])
	r.U32()
	r.U64()
	r.U64()
	r.U64()
	r.U64()
	ids = r.I32s()
	batches = int(checkpoint.NewReader(bySeg["deltas"]).U64())
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return ids, batches
}

// TestSessionSupersededLinkUnion: with the persister stuck in one link's
// write, the next capture waits in the mailbox and the one after takes it
// back. The link that finally lands carries both refreshes' rows and
// batches — nothing the superseded capture held is lost — and the chain
// resumes to the live state.
func TestSessionSupersededLinkUnion(t *testing.T) {
	dir := t.TempDir()
	m := gas.NewGCNModel("union-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(231))
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	opts := Options{
		NumWorkers: 2, DeltaCutover: 1.1, SessionDir: dir,
		SessionPersistBeginHook: func(mark uint64) error {
			if mark == 1 {
				once.Do(func() {
					entered <- struct{}{}
					<-release
				})
			}
			return nil
		},
	}
	landed := sessionEpochs(&opts)
	sess, err := NewSession(m, chainTestGraph(232), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.CloseDurable()
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitSessionEpochs(t, landed, 1)
	rng := tensor.NewRNG(233)
	row := func() []float32 {
		r := make([]float32, 6)
		for i := range r {
			r[i] = rng.Float32()
		}
		return r
	}
	var last *Result
	for r := 1; r <= 3; r++ {
		node := int32(100 * r)
		if _, err := sess.Mutate(graph.Delta{Features: []graph.FeatureUpdate{{Node: node, Features: row()}}}); err != nil {
			t.Fatal(err)
		}
		sess.SetReplayMark(uint64(r))
		if last, _, err = sess.Refresh(); err != nil {
			t.Fatal(err)
		}
		if r == 1 {
			<-entered // link 1's write is stuck; round 2 waits in the mailbox
		}
	}
	if ds := sess.DurableStats(); ds.Superseded != 1 {
		t.Fatalf("want round 3 to take round 2's capture back, have %+v", ds)
	}
	close(release)
	waitSessionEpochs(t, landed, 3)

	base := sess.dur.base
	ids, batches := readLink(t, dir, base, 2)
	if batches != 2 {
		t.Fatalf("merged link carries %d batches, want rounds 2 and 3", batches)
	}
	for _, v := range []int32{200, 300} {
		if _, found := slices.BinarySearch(ids, v); !found {
			t.Fatalf("merged link lacks node %d's rows (ids %v)", v, ids)
		}
	}
	resumed, ok, err := ResumeSession(m, Options{NumWorkers: 2, SessionDir: crashCopy(t, dir)})
	if err != nil || !ok {
		t.Fatalf("resume: ok=%v err=%v", ok, err)
	}
	defer resumed.CloseDurable()
	assertResumedEquals(t, "merged chain", resumed, sess, last.Logits)
}

// linkHeaderBound covers a link's fixed bytes: the file header and footer,
// one name, length and checksum per segment, and the meta fields.
const linkHeaderBound = 512

// TestSessionLinkBytesBound: a link's size is its rows, its batches and a
// fixed header — nothing proportional to the resident state. Its rows are
// at most the vertex-steps the delta pass ran, each one id plus the
// vertex's row in every persisted slab.
func TestSessionLinkBytesBound(t *testing.T) {
	for name, m := range map[string]*gas.Model{
		"gcn": gas.NewGCNModel("b-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(241)),
		"gat": gas.NewGATModel("b-gat", gas.TaskSingleLabel, 6, 4, 2, 3, 2, tensor.NewRNG(242)),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{NumWorkers: 2, DeltaCutover: 1.1, SessionDir: dir}
			landed := sessionEpochs(&opts)
			sess, err := NewSession(m, chainTestGraph(243), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.CloseDurable()
			if _, _, err := sess.Refresh(); err != nil {
				t.Fatal(err)
			}
			waitSessionEpochs(t, landed, 1)
			base := sess.DurableStats().LastBytes
			rowBytes := int64(4) // the row's id
			for _, l := range m.Layers {
				rowBytes += 4 * int64(l.OutDim())
				if e := emitterOf(l); e != nil {
					rowBytes += 4 * int64(e.MsgDim())
				}
			}
			rng := tensor.NewRNG(244)
			for r := 1; r <= 3; r++ {
				d := randomDelta(rng, sess.Graph(), true)
				if _, err := sess.Mutate(d); err != nil {
					t.Fatal(err)
				}
				res, _, err := sess.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				waitSessionEpochs(t, landed, r+1)
				ds := sess.DurableStats()
				if ds.Links != int64(r) {
					t.Fatalf("round %d wrote no link: %+v", r, ds)
				}
				ids, _ := readLink(t, dir, sess.dur.base, r)
				var steps int64
				for _, a := range res.Stats.StepActive {
					steps += int64(a)
				}
				if int64(len(ids)) > steps {
					t.Fatalf("round %d: link holds %d rows, the pass ran %d vertex-steps", r, len(ids), steps)
				}
				deltaBytes := int64(8 + len(graph.AppendDelta(nil, d)))
				if bound := int64(len(ids))*rowBytes + deltaBytes + linkHeaderBound; ds.LastBytes > bound {
					t.Fatalf("round %d: link is %d bytes, bound %d (%d rows × %d + %d + %d)",
						r, ds.LastBytes, bound, len(ids), rowBytes, deltaBytes, linkHeaderBound)
				}
				if ds.LastBytes*4 > base {
					t.Fatalf("round %d: link is %d bytes against a %d-byte base", r, ds.LastBytes, base)
				}
			}
		})
	}
}

// TestSessionFailedLinkRestartsChain: a link that fails to write leaves a
// hole the next link cannot bridge, so the next persist is a base — and
// the state it lands resumes exactly.
func TestSessionFailedLinkRestartsChain(t *testing.T) {
	dir := t.TempDir()
	m := gas.NewGCNModel("hole-gcn", gas.TaskSingleLabel, 6, 9, 3, 2, tensor.NewRNG(251))
	opts := Options{
		NumWorkers: 2, DeltaCutover: 1.1, SessionDir: dir,
		SessionPersistBeginHook: func(mark uint64) error {
			if mark == 2 {
				return fmt.Errorf("injected persist fault at mark %d", mark)
			}
			return nil
		},
	}
	landed := sessionEpochs(&opts)
	sess, err := NewSession(m, chainTestGraph(252), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.CloseDurable()
	if _, _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitSessionEpochs(t, landed, 1)
	rng := tensor.NewRNG(253)
	var last *Result
	for r := 1; r <= 3; r++ {
		if _, err := sess.Mutate(randomDelta(rng, sess.Graph(), true)); err != nil {
			t.Fatal(err)
		}
		sess.SetReplayMark(uint64(r))
		if last, _, err = sess.Refresh(); err != nil {
			t.Fatal(err)
		}
		<-landed // one outcome per round: link, failure, then the base
	}
	if ds := sess.DurableStats(); ds.Failures != 1 || ds.Epochs != 3 || ds.Links != 0 || ds.Folds != 1 {
		t.Fatalf("want link 1, a failed link, then a base over the chain: %+v", ds)
	}
	resumed, ok, err := ResumeSession(m, Options{NumWorkers: 2, SessionDir: crashCopy(t, dir)})
	if err != nil || !ok {
		t.Fatalf("resume: ok=%v err=%v", ok, err)
	}
	defer resumed.CloseDurable()
	assertResumedEquals(t, "after the restarted chain", resumed, sess, last.Logits)
}
