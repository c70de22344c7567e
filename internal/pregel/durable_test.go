package pregel

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inferturbo/internal/checkpoint"
)

// Codecs for the test programs. colCodec speaks the columnar test programs'
// types (V=float32, M=[3]float32); rankCodec speaks PageRank's (V=M=float64).

type colCodec struct{}

func (colCodec) EncodeValues(dst []byte, vals []float32) ([]byte, error) {
	return checkpoint.AppendF32s(dst, vals), nil
}

func (colCodec) DecodeValues(data []byte, into []float32) error {
	r := checkpoint.NewReader(data)
	copy(into, r.F32s())
	return r.Err()
}

func (colCodec) EncodeMsgs(dst []byte, msgs [][3]float32) ([]byte, error) {
	dst = checkpoint.AppendU64(dst, uint64(3*len(msgs)))
	for _, m := range msgs {
		for _, x := range m {
			dst = checkpoint.AppendU32(dst, math.Float32bits(x))
		}
	}
	return dst, nil
}

func (colCodec) DecodeMsgs(data []byte) ([][3]float32, error) {
	r := checkpoint.NewReader(data)
	flat := r.F32s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	msgs := make([][3]float32, len(flat)/3)
	for i := range msgs {
		copy(msgs[i][:], flat[3*i:])
	}
	return msgs, nil
}

type rankCodec struct{}

func appendF64s(b []byte, v []float64) []byte {
	b = checkpoint.AppendU64(b, uint64(len(v)))
	for _, x := range v {
		b = checkpoint.AppendU64(b, math.Float64bits(x))
	}
	return b
}

func readF64s(r *checkpoint.Reader) []float64 {
	n := int(r.U64())
	v := make([]float64, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		v = append(v, math.Float64frombits(r.U64()))
	}
	return v
}

func (rankCodec) EncodeValues(dst []byte, vals []float64) ([]byte, error) {
	return appendF64s(dst, vals), nil
}

func (rankCodec) DecodeValues(data []byte, into []float64) error {
	r := checkpoint.NewReader(data)
	copy(into, readF64s(r))
	return r.Err()
}

func (rankCodec) EncodeMsgs(dst []byte, msgs []float64) ([]byte, error) {
	return appendF64s(dst, msgs), nil
}

func (rankCodec) DecodeMsgs(data []byte) ([]float64, error) {
	r := checkpoint.NewReader(data)
	v := readF64s(r)
	return v, r.Err()
}

// ProgramDiskStater for batchSumProg, so durable checkpoints can carry its
// per-worker slabs.
func (p *batchSumProg) EncodeProgState(dst []byte, snap any) ([]byte, error) {
	slabs := snap.([][]float32)
	b := checkpoint.AppendU64(dst, uint64(len(slabs)))
	for _, s := range slabs {
		b = checkpoint.AppendF32s(b, s)
	}
	return b, nil
}

func (p *batchSumProg) DecodeProgState(data []byte) (any, error) {
	r := checkpoint.NewReader(data)
	n := int(r.U64())
	slabs := make([][]float32, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		slabs = append(slabs, r.F32s())
	}
	return slabs, r.Err()
}

// colConfig builds the standard columnar test config for one plane combo.
func colConfig(parallel, batched bool) Config[[3]float32] {
	return Config[[3]float32]{
		NumWorkers:      4,
		Parallel:        parallel,
		MaxSupersteps:   10,
		CheckpointEvery: 2,
		Columnar:        &ColumnarOps{Combine: colSumCombiner},
		Batched:         batched,
	}
}

// colPlanes are the compute planes the fault and resume matrices cover.
var colPlanes = []struct {
	name    string
	batched bool
}{
	{"pervertex", false},
	{"batched", true},
}

func newColProg(batched bool) VertexProgram[float32, [3]float32] {
	if batched {
		return newBatchSumProg(6, 4)
	}
	return newScratchSumProg(6, 4)
}

// TestFaultPlanMatrixByteIdentical drives every fault point through every
// plane combo — including multiple crashes in one run — and requires values
// and message totals bit-identical to the failure-free run.
func TestFaultPlanMatrixByteIdentical(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	faultSets := map[string][]Fault{
		"before":     {{Superstep: 5, Point: FaultBeforeSuperstep}},
		"mid":        {{Superstep: 5, Point: FaultMidPipeline}},
		"barrier":    {{Superstep: 5, Point: FaultAtBarrier}},
		"checkpoint": {{Superstep: 3, Point: FaultDuringCheckpoint}},
		"multi": {
			{Superstep: 1, Point: FaultMidPipeline},
			{Superstep: 3, Point: FaultDuringCheckpoint},
			{Superstep: 5, Point: FaultAtBarrier},
			{Superstep: 5, Point: FaultBeforeSuperstep}, // fires on the replay pass
		},
	}
	for _, pl := range colPlanes {
		run := func(plan *FaultPlan) ([]float32, int, int64) {
			cfg := colConfig(true, pl.batched)
			cfg.Faults = plan
			eng := NewEngine[float32, [3]float32](topo, newColProg(pl.batched), cfg)
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			var sent int64
			for _, m := range eng.TotalMetrics() {
				sent += m.MessagesSent
			}
			return append([]float32(nil), eng.Values()...), eng.Recoveries(), sent
		}
		clean, rec0, sent0 := run(nil)
		if rec0 != 0 {
			t.Fatalf("%s: clean run recovered", pl.name)
		}
		for name, faults := range faultSets {
			failed, rec, sent := run(&FaultPlan{Crashes: faults})
			if rec != len(faults) {
				t.Fatalf("%s/%s: recoveries = %d, want %d", pl.name, name, rec, len(faults))
			}
			if sent != sent0 {
				t.Fatalf("%s/%s: message totals differ: clean %d vs %d (lost work not discarded)",
					pl.name, name, sent0, sent)
			}
			for v := range clean {
				if clean[v] != failed[v] {
					t.Fatalf("%s/%s: value[%d] differs after recovery: %v vs %v",
						pl.name, name, v, clean[v], failed[v])
				}
			}
		}
	}
}

// TestFaultAtSuperstepZero: a FaultPlan entry can target superstep 0, and
// the step-0 checkpoint an armed plan takes recovers it.
func TestFaultAtSuperstepZero(t *testing.T) {
	topo := randomTopology(t, 50, 200, 13)
	run := func(plan *FaultPlan) ([]float32, int) {
		cfg := colConfig(false, false)
		cfg.Faults = plan
		eng := NewEngine[float32, [3]float32](topo, newScratchSumProg(5, 4), cfg)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), eng.Values()...), eng.Recoveries()
	}
	clean, _ := run(nil)
	for _, p := range []FaultPoint{FaultBeforeSuperstep, FaultMidPipeline, FaultAtBarrier} {
		failed, rec := run(&FaultPlan{Crashes: []Fault{{Superstep: 0, Point: p}}})
		if rec != 1 {
			t.Fatalf("%v at superstep 0: recoveries = %d, want 1", p, rec)
		}
		for v := range clean {
			if clean[v] != failed[v] {
				t.Fatalf("%v at superstep 0: value[%d] differs", p, v)
			}
		}
	}
}

// TestBoxedPlaneFaultRecovery mirrors the columnar matrix on the boxed
// message plane, exercising worker mail and aggregators across a rollback.
func TestBoxedPlaneFaultRecovery(t *testing.T) {
	topo := randomTopology(t, 60, 240, 17)
	// A boxed program using every snapshotted channel: vertex messages,
	// worker mail, and an aggregator read back the next superstep.
	prog := func() VertexProgram[float64, float64] {
		return progFunc[float64, float64](func(ctx *Context[float64, float64], msgs []float64) {
			if ctx.Superstep == 0 {
				*ctx.Value = float64(int(ctx.ID)%9 + 1)
			} else {
				var s float64
				for _, m := range msgs {
					s += m
				}
				for _, m := range ctx.WorkerMail() {
					s += m / 1000
				}
				if g, ok := ctx.AggregatorGet("shift"); ok {
					s += float64(g[0])
				}
				*ctx.Value = math.Mod(s, 9973)
			}
			if ctx.Superstep >= 6 {
				ctx.VoteToHalt()
				return
			}
			dsts, _ := ctx.OutEdges()
			for _, d := range dsts {
				ctx.SendMessage(d, *ctx.Value+float64(ctx.ID)/7)
			}
			ctx.SendToWorker((int(ctx.ID)+1)%ctx.NumWorkers(), float64(ctx.ID))
			if ctx.ID == 0 {
				ctx.AggregatorPut("shift", []float32{float32(ctx.Superstep)})
			}
		})
	}
	run := func(plan *FaultPlan) ([]float64, int) {
		eng := NewEngine[float64, float64](topo, prog(), Config[float64]{
			NumWorkers: 4, Parallel: true, MaxSupersteps: 10, CheckpointEvery: 2, Faults: plan,
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), eng.Values()...), eng.Recoveries()
	}
	clean, _ := run(nil)
	for name, faults := range map[string][]Fault{
		"mid":     {{Superstep: 3, Point: FaultMidPipeline}},
		"barrier": {{Superstep: 5, Point: FaultAtBarrier}},
		"multi":   {{Superstep: 1, Point: FaultAtBarrier}, {Superstep: 5, Point: FaultMidPipeline}},
	} {
		failed, rec := run(&FaultPlan{Crashes: faults})
		if rec != len(faults) {
			t.Fatalf("%s: recoveries = %d, want %d", name, rec, len(faults))
		}
		for v := range clean {
			if clean[v] != failed[v] {
				t.Fatalf("%s: value[%d] differs after boxed recovery: %v vs %v",
					name, v, clean[v], failed[v])
			}
		}
	}
}

// runDurable executes one engine run against a disk store in dir, optionally
// resuming, with MaxSupersteps capped at maxSteps (simulating a kill by
// stopping the loop early while epochs stay on disk).
func runDurable(t *testing.T, topo Topology, batched bool, maxSteps int, dir string, resume bool) ([]float32, bool) {
	t.Helper()
	cfg := colConfig(true, batched)
	cfg.MaxSupersteps = maxSteps
	eng := NewEngine[float32, [3]float32](topo, newColProg(batched), cfg)
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetSink(st, colCodec{})
	resumed := false
	if resume {
		if resumed, err = eng.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return append([]float32(nil), eng.Values()...), resumed
}

// TestDurableResumeBitIdentical: stop a run partway (epochs on disk), build
// a fresh engine over the same store, Resume, finish — values must equal an
// uninterrupted run's, on every compute plane.
func TestDurableResumeBitIdentical(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	for _, pl := range colPlanes {
		clean, _ := runDurable(t, topo, pl.batched, 10, t.TempDir(), false)
		dir := t.TempDir()
		runDurable(t, topo, pl.batched, 4, dir, false) // "killed" after superstep 3
		resumedVals, resumed := runDurable(t, topo, pl.batched, 10, dir, true)
		if !resumed {
			t.Fatalf("%s: no epoch found to resume from", pl.name)
		}
		for v := range clean {
			if clean[v] != resumedVals[v] {
				t.Fatalf("%s: value[%d] differs after resume: %v vs %v",
					pl.name, v, clean[v], resumedVals[v])
			}
		}
	}
}

// TestDurableResumeBoxedPlane covers Resume on the boxed plane (codec-
// encoded M values in the epoch).
func TestDurableResumeBoxedPlane(t *testing.T) {
	topo := randomTopology(t, 60, 240, 9)
	run := func(maxSteps int, dir string, resume bool) ([]float64, bool) {
		prog := &PageRankProgram{NumVertices: 60, Iterations: 8}
		eng := NewEngine[float64, float64](topo, prog, Config[float64]{
			NumWorkers: 3, MaxSupersteps: maxSteps, CheckpointEvery: 2, Combiner: PageRankCombiner,
		})
		st, err := checkpoint.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetSink(st, rankCodec{})
		resumed := false
		if resume {
			if resumed, err = eng.Resume(); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), eng.Values()...), resumed
	}
	clean, _ := run(10, t.TempDir(), false)
	dir := t.TempDir()
	run(4, dir, false)
	got, resumed := run(10, dir, true)
	if !resumed {
		t.Fatal("no epoch found to resume from")
	}
	for v := range clean {
		if clean[v] != got[v] {
			t.Fatalf("value[%d] differs after boxed resume: %v vs %v", v, clean[v], got[v])
		}
	}
}

// TestResumeFallsBackPastCorruptEpoch: corrupt the newest epoch file; Resume
// must recover from the previous epoch and still finish bit-identically.
func TestResumeFallsBackPastCorruptEpoch(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	clean, _ := runDurable(t, topo, true, 10, t.TempDir(), false)
	dir := t.TempDir()
	runDurable(t, topo, true, 10, dir, false)
	// Corrupt the newest epoch: flip a byte in the middle.
	names, err := filepath.Glob(filepath.Join(dir, "epoch-*.ckpt"))
	if err != nil || len(names) < 2 {
		t.Fatalf("expected >=2 epochs, got %v (err %v)", names, err)
	}
	latest := names[len(names)-1]
	b, _ := os.ReadFile(latest)
	b[len(b)/2] ^= 0xff
	os.WriteFile(latest, b, 0o644)
	got, resumed := runDurable(t, topo, true, 10, dir, true)
	if !resumed {
		t.Fatal("fallback epoch not found")
	}
	for v := range clean {
		if clean[v] != got[v] {
			t.Fatalf("value[%d] differs after torn-epoch fallback: %v vs %v", v, clean[v], got[v])
		}
	}
}

// TestResumeShapeMismatchFailsLoudly: an epoch written by a differently
// configured engine must be rejected, not silently misapplied.
func TestResumeShapeMismatch(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	dir := t.TempDir()
	runDurable(t, topo, false, 4, dir, false) // 4-worker epoch
	cfg := colConfig(true, false)
	cfg.NumWorkers = 3
	eng := NewEngine[float32, [3]float32](topo, newScratchSumProg(6, 3), cfg)
	st, _ := checkpoint.NewStore(dir)
	eng.SetSink(st, colCodec{})
	if _, err := eng.Resume(); err == nil || !strings.Contains(err.Error(), "does not match engine") {
		t.Fatalf("shape mismatch not rejected: %v", err)
	}
}

// TestResumeRefusesV1Snapshot: an epoch whose meta carries snapshot format
// v1 (with its extra plane flag) fails Resume naming both versions.
func TestResumeRefusesV1Snapshot(t *testing.T) {
	topo := randomTopology(t, 70, 300, 21)
	dir := t.TempDir()
	runDurable(t, topo, false, 4, dir, false)
	st, _ := checkpoint.NewStore(dir)
	step, segs, found, err := st.Load()
	if err != nil || !found {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	for i, sg := range segs {
		if sg.Name != segMeta {
			continue
		}
		r := checkpoint.NewReader(sg.Data)
		r.U32()
		flags := r.Bools()
		b := checkpoint.AppendU32(nil, 1)
		b = checkpoint.AppendBools(b, []bool{flags[0], false, flags[1], flags[2]})
		segs[i].Data = append(b, sg.Data[len(sg.Data)-r.Remaining():]...)
	}
	old, _ := checkpoint.NewStore(t.TempDir())
	if err := old.Save(step, segs); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine[float32, [3]float32](topo, newScratchSumProg(6, 4), colConfig(true, false))
	eng.SetSink(old, colCodec{})
	if _, err = eng.Resume(); err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "speaks 2") {
		t.Fatalf("v1 snapshot not refused by version: %v", err)
	}
}

// TestResumeEmptyStore: nothing on disk is a cold start, not an error.
func TestResumeEmptyStore(t *testing.T) {
	topo := ringTopology(t, 8)
	eng := NewEngine[float32, [3]float32](topo, newScratchSumProg(3, 2), Config[[3]float32]{
		NumWorkers: 2, MaxSupersteps: 6, CheckpointEvery: 2, Columnar: &ColumnarOps{},
	})
	st, _ := checkpoint.NewStore(t.TempDir())
	eng.SetSink(st, colCodec{})
	resumed, err := eng.Resume()
	if err != nil || resumed {
		t.Fatalf("empty store: resumed=%v err=%v", resumed, err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointStatsObservability: committed checkpoints, snapshot wall
// time, persisted bytes, and the per-superstep CheckpointNs metric must all
// be visible.
func TestCheckpointStatsObservability(t *testing.T) {
	topo := randomTopology(t, 50, 200, 5)
	cfg := colConfig(false, false)
	eng := NewEngine[float32, [3]float32](topo, newScratchSumProg(6, 4), cfg)
	st, _ := checkpoint.NewStore(t.TempDir())
	eng.SetSink(st, colCodec{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	cs := eng.CheckpointStats()
	// 6 rounds + halt step, CheckpointEvery=2: seed at 0 plus steps 2,4,6.
	if cs.Checkpoints < 3 {
		t.Fatalf("checkpoints = %d, want >= 3", cs.Checkpoints)
	}
	if cs.Bytes == 0 || cs.SnapshotNs == 0 {
		t.Fatalf("stats not recorded: %+v", cs)
	}
	var perStep int64
	for _, step := range eng.Metrics() {
		perStep += step[0].CheckpointNs
	}
	if perStep == 0 {
		t.Fatal("StepMetrics.CheckpointNs never charged")
	}
	var total int64
	for _, m := range eng.TotalMetrics() {
		total += m.CheckpointNs
	}
	if total != perStep {
		t.Fatalf("TotalMetrics checkpoint time %d != per-step sum %d", total, perStep)
	}
}
