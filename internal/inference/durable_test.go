package inference

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/datagen"
	"inferturbo/internal/pregel"
	"inferturbo/internal/tensor"
)

// crashBefore is a one-entry fault plan crashing before superstep step.
func crashBefore(step int) *pregel.FaultPlan {
	return &pregel.FaultPlan{Crashes: []pregel.Fault{{Superstep: step, Point: pregel.FaultBeforeSuperstep}}}
}

// corruptLatestEpoch flips a byte in the middle of the newest epoch file so
// resume must fall back to the previous epoch (and therefore recompute the
// supersteps in between).
func corruptLatestEpoch(t *testing.T, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "epoch-*.ckpt"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no epoch files in %s (err %v)", dir, err)
	}
	latest := names[len(names)-1]
	b, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(latest, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCheckpointStats: a run with CheckpointDir set writes epoch
// files and reports checkpoint observability through Stats.
func TestDurableCheckpointStats(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 160)
	m := sageModel(t)
	dir := t.TempDir()
	res, err := RunPregel(m, g, Options{NumWorkers: 4, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Checkpoints == 0 || res.Stats.CheckpointBytes == 0 {
		t.Fatalf("checkpoint stats not reported: %+v", res.Stats)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "epoch-*.ckpt"))
	if len(names) == 0 {
		t.Fatal("no epoch files written")
	}
}

// TestResumeFromDurableEpoch: serial and parallel, a resumed run
// over an existing checkpoint directory — with the newest epoch corrupted, so
// resume falls back an epoch and recomputes the tail supersteps — produces
// byte-identical predictions.
func TestResumeFromDurableEpoch(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 210)
	m := sageModel(t)
	planes := []Options{
		{NumWorkers: 4, Parallel: true},
		{NumWorkers: 4},
		{NumWorkers: 3, Broadcast: true, ShadowNodes: true, PartialGather: true, EmitEmbeddings: true},
	}
	for _, opts := range planes {
		clean, err := RunPregel(m, g, opts)
		if err != nil {
			t.Fatalf("%s clean: %v", comboName(opts), err)
		}
		dir := t.TempDir()
		seeded := opts
		seeded.CheckpointDir = dir
		// Every superstep, so two durable epochs exist (the step-0 seed is
		// never persisted) and corrupting the newest leaves a fallback.
		seeded.CheckpointEvery = 1
		if _, err := RunPregel(m, g, seeded); err != nil {
			t.Fatalf("%s seed: %v", comboName(opts), err)
		}
		corruptLatestEpoch(t, dir)
		resumedOpts := seeded
		resumedOpts.Resume = true
		res, err := RunPregel(m, g, resumedOpts)
		if err != nil {
			t.Fatalf("%s resume: %v", comboName(opts), err)
		}
		if !res.Stats.Resumed {
			t.Fatalf("%s: run did not resume from the fallback epoch", comboName(opts))
		}
		if !clean.Logits.Equal(res.Logits) {
			t.Fatalf("%s: logits diverge after resume: max diff %v",
				comboName(opts), clean.Logits.MaxAbsDiff(res.Logits))
		}
		if clean.Embeddings != nil && !clean.Embeddings.Equal(res.Embeddings) {
			t.Fatalf("%s: embeddings diverge after resume", comboName(opts))
		}
	}
}

// TestResumeColdStart: Resume over an empty directory is a normal run.
func TestResumeColdStart(t *testing.T) {
	g := testGraph(t, datagen.SkewIn, 130)
	m := sageModel(t)
	clean, err := RunPregel(m, g, Options{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPregel(m, g, Options{NumWorkers: 4, CheckpointDir: t.TempDir(), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Resumed {
		t.Fatal("cold start reported as resumed")
	}
	if !clean.Logits.Equal(res.Logits) {
		t.Fatal("cold-start logits diverge")
	}
}

// TestFaultPlanInference: a multi-crash fault plan — including a superstep-0
// crash — recovers to byte-identical predictions.
func TestFaultPlanInference(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 180)
	m := sageModel(t)
	plan := &pregel.FaultPlan{Crashes: []pregel.Fault{
		{Superstep: 0, Point: pregel.FaultAtBarrier},
		{Superstep: 1, Point: pregel.FaultMidPipeline},
		{Superstep: 2, Point: pregel.FaultDuringCheckpoint},
		{Superstep: m.NumLayers(), Point: pregel.FaultBeforeSuperstep},
	}}
	opts := Options{NumWorkers: 4, Parallel: true}
	clean, err := RunPregel(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	chaotic := opts
	chaotic.CheckpointEvery = 1
	chaotic.Faults = plan
	res, err := RunPregel(m, g, chaotic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries != len(plan.Crashes) {
		t.Fatalf("recoveries = %d, want %d", res.Stats.Recoveries, len(plan.Crashes))
	}
	if !clean.Logits.Equal(res.Logits) {
		t.Fatalf("logits diverge after fault plan: max diff %v", clean.Logits.MaxAbsDiff(res.Logits))
	}
}

// TestMapReduceRejectsDurableOptions: the MapReduce backend has no
// checkpoint boundary, so durable options must fail loudly, not silently
// no-op.
func TestMapReduceRejectsDurableOptions(t *testing.T) {
	g := testGraph(t, datagen.SkewNone, 60)
	m := sageModel(t)
	for _, opts := range []Options{
		{NumWorkers: 2, CheckpointDir: t.TempDir()},
		{NumWorkers: 2, Resume: true},
		{NumWorkers: 2, Faults: &pregel.FaultPlan{Crashes: []pregel.Fault{{Superstep: 1}}}},
	} {
		if _, err := RunMapReduce(m, g, opts); err == nil || !strings.Contains(err.Error(), "Pregel backend") {
			t.Fatalf("durable options not rejected: %v", err)
		}
	}
}

// TestResumeRefusesUnversionedProgState: an in-pass epoch whose program
// state has an older build's unversioned layout — the worker count, then
// per worker the state and embedding slabs (and, in the layout after it,
// the emitted slab between them) — is an error naming both versions, never
// a resumed run over misread slabs.
func TestResumeRefusesUnversionedProgState(t *testing.T) {
	g := testGraph(t, datagen.SkewOut, 120)
	m := sageModel(t)
	for _, slabs := range []int{2, 3} {
		dir := t.TempDir()
		opts := Options{NumWorkers: 3, CheckpointDir: dir, CheckpointEvery: 1}
		if _, err := RunPregel(m, g, opts); err != nil {
			t.Fatal(err)
		}
		st, err := checkpoint.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		step, segs, found, err := st.Load()
		if err != nil || !found {
			t.Fatalf("no epoch to rewrite: found=%v err=%v", found, err)
		}
		old := checkpoint.AppendU64(nil, uint64(opts.NumWorkers))
		for w := 0; w < opts.NumWorkers; w++ {
			old = appendMatrix(old, tensor.New(40, 12))
			for i := 1; i < slabs; i++ {
				old = appendMatrix(old, nil)
			}
		}
		rewritten := false
		for i := range segs {
			if segs[i].Name == "prog" {
				segs[i].Data, rewritten = old, true
			}
		}
		if !rewritten {
			t.Fatal("epoch has no program-state segment")
		}
		if err := st.Save(step, segs); err != nil {
			t.Fatal(err)
		}
		opts.Resume = true
		res, err := RunPregel(m, g, opts)
		if err == nil {
			t.Fatalf("%d-slab layout: run succeeded (resumed=%v)", slabs, res.Stats.Resumed)
		}
		if msg := err.Error(); !strings.Contains(msg, "version 0") || !strings.Contains(msg, fmt.Sprintf("want %d", progStateVersion)) {
			t.Fatalf("%d-slab layout: error %q does not name both versions", slabs, msg)
		}
	}
}
