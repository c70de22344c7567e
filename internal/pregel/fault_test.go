package pregel

import (
	"testing"

	"inferturbo/internal/graph"
)

// faultConfig is the standard fault-test config: 4 workers, combining, a
// checkpoint every 2 supersteps.
func faultConfig(parallel bool) Config {
	return Config{
		NumWorkers:      4,
		Parallel:        parallel,
		MaxSupersteps:   10,
		CheckpointEvery: 2,
		Combine:         sumCombine,
	}
}

// TestFaultPlanMatrixByteIdentical drives every fault point through both
// send modes — including multiple crashes in one run — and requires values
// and message totals bit-identical to the failure-free run and to the
// serial reference.
func TestFaultPlanMatrixByteIdentical(t *testing.T) {
	g := randomGraph(70, 300, 21)
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
	for _, mode := range []struct {
		name string
		fan  bool
	}{{"per-edge", false}, {"fan", true}} {
		p := testProg{rounds: 6, fan: mode.fan}
		ref := refRun(g, p, nil, 10, 4)
		run := func(plan *FaultPlan) ([]int32, int, int64) {
			cfg := faultConfig(true)
			cfg.Faults = plan
			eng, vals := runProg(t, g, p, cfg)
			return vals, eng.Recoveries(), sumMetrics(eng).MessagesSent
		}
		clean, rec0, sent0 := run(nil)
		if rec0 != 0 {
			t.Fatalf("%s: clean run recovered", mode.name)
		}
		for v := range clean {
			if clean[v] != ref.vals[v] {
				t.Fatalf("%s: value[%d] = %v, reference %v", mode.name, v, clean[v], ref.vals[v])
			}
		}
		for name, faults := range faultSets {
			failed, rec, sent := run(&FaultPlan{Crashes: faults})
			if rec != len(faults) {
				t.Fatalf("%s/%s: recoveries = %d, want %d", mode.name, name, rec, len(faults))
			}
			if sent != sent0 {
				t.Fatalf("%s/%s: message totals differ: clean %d vs %d (lost work not discarded)",
					mode.name, name, sent0, sent)
			}
			for v := range clean {
				if clean[v] != failed[v] {
					t.Fatalf("%s/%s: value[%d] differs after recovery: %v vs %v",
						mode.name, name, v, clean[v], failed[v])
				}
			}
		}
	}
}

// TestFaultAtSuperstepZero: a FaultPlan entry can target superstep 0, and
// the step-0 checkpoint an armed plan takes recovers it.
func TestFaultAtSuperstepZero(t *testing.T) {
	g := randomGraph(50, 200, 13)
	run := func(plan *FaultPlan) ([]int32, int) {
		cfg := faultConfig(false)
		cfg.Faults = plan
		eng, vals := runProg(t, g, testProg{rounds: 5}, cfg)
		return vals, eng.Recoveries()
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

// mailRingProg sends along every out-edge and has every vertex v mail
// worker (v+1) mod NumWorkers each superstep, so every worker's mailbox
// holds rows from many sources and sender workers. Its fold hashes the
// mailbox in delivery order.
type mailRingProg struct {
	g      *graph.Graph
	rounds int
	vals   [][]int32 // per worker, by local index
}

func (p *mailRingProg) ComputeBatch(ctx *BatchContext) {
	w, step := ctx.WorkerID(), ctx.Superstep
	owned := ctx.Owned()
	if step == 0 {
		p.vals[w] = make([]int32, len(owned))
	}
	mail := ctx.ColumnarWorkerMail()
	h := int64(0)
	for i := 0; i < mail.Len(); i++ {
		h = (h*31 + int64(mail.Srcs[i]) + int64(mail.Payloads[i][0])) % valMod
	}
	off, in := ctx.InboxCSR()
	for li, v := range owned {
		if step == 0 {
			p.vals[w][li] = v%9 + 1
		} else {
			s := h
			for i := off[li]; i < off[li+1]; i++ {
				s += int64(in.Payloads[i][0])
			}
			p.vals[w][li] = int32(s % valMod)
		}
		if step >= p.rounds {
			ctx.Halt(li)
			continue
		}
		pay := []float32{float32(p.vals[w][li] + v%7)}
		for _, d := range p.g.OutNeighbors(v) {
			ctx.SendColumnar(d, 0, v, 1, pay)
		}
		ctx.SendColumnarToWorker((int(v)+1)%len(p.vals), 1, v, 0, []float32{float32(step)})
	}
}

// SnapshotProgState implements ProgramStater.
func (p *mailRingProg) SnapshotProgState() any {
	snap := make([][]int32, len(p.vals))
	for w, vs := range p.vals {
		snap[w] = append([]int32(nil), vs...)
	}
	return snap
}

// RestoreProgState implements ProgramStater.
func (p *mailRingProg) RestoreProgState(snap any) {
	for w, vs := range snap.([][]int32) {
		p.vals[w] = append([]int32(nil), vs...)
	}
}

// TestBoxedPlaneFaultRecovery keeps the mail pattern of the fault test the
// boxed message plane had: every vertex mails a worker each superstep, and
// mailboxes and vertex messages in flight at a rollback must replay to the
// failure-free values and message totals.
func TestBoxedPlaneFaultRecovery(t *testing.T) {
	g := randomGraph(60, 240, 17)
	run := func(plan *FaultPlan) ([]int32, int, int64) {
		prog := &mailRingProg{g: g, rounds: 6, vals: make([][]int32, 4)}
		eng := NewEngine(g, prog, Config{
			NumWorkers: 4, Parallel: true, MaxSupersteps: 10, CheckpointEvery: 2, Faults: plan,
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		vals := make([]int32, g.NumNodes)
		for v := range vals {
			vals[v] = prog.vals[eng.part.WorkerFor(int32(v))][eng.part.LocalIndex(int32(v))]
		}
		return vals, eng.Recoveries(), sumMetrics(eng).MessagesSent
	}
	clean, _, sent0 := run(nil)
	for name, faults := range map[string][]Fault{
		"mid":     {{Superstep: 3, Point: FaultMidPipeline}},
		"barrier": {{Superstep: 5, Point: FaultAtBarrier}},
		"multi":   {{Superstep: 1, Point: FaultAtBarrier}, {Superstep: 5, Point: FaultMidPipeline}},
	} {
		failed, rec, sent := run(&FaultPlan{Crashes: faults})
		if rec != len(faults) {
			t.Fatalf("%s: recoveries = %d, want %d", name, rec, len(faults))
		}
		if sent != sent0 {
			t.Fatalf("%s: message totals differ: clean %d vs %d", name, sent0, sent)
		}
		for v := range clean {
			if clean[v] != failed[v] {
				t.Fatalf("%s: value[%d] differs after recovery: %v vs %v", name, v, clean[v], failed[v])
			}
		}
	}
}

// TestCheckpointStatsObservability: committed checkpoints, snapshot wall
// time, and the per-superstep CheckpointNs metric must all be visible.
func TestCheckpointStatsObservability(t *testing.T) {
	eng, _ := runProg(t, randomGraph(50, 200, 5), testProg{rounds: 6}, faultConfig(false))
	cs := eng.CheckpointStats()
	// 6 rounds + halt step, CheckpointEvery=2: steps 2, 4 and 6.
	if cs.Checkpoints < 3 {
		t.Fatalf("checkpoints = %d, want >= 3", cs.Checkpoints)
	}
	if cs.SnapshotNs == 0 {
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
