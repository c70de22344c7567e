// Command infer runs full-graph InferTurbo inference of a trained signature
// file over a dataset, on either backend, with the skew strategies
// selectable, and prints predictions, traffic stats and the simulated
// cluster cost.
//
// Usage:
//
//	infer -data graph.bin -model model.json -backend pregel \
//	      -workers 100 -partial-gather -broadcast -shadow-nodes
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"syscall"

	"inferturbo"
	"inferturbo/internal/checkpoint"
)

func main() {
	var (
		data    = flag.String("data", "graph.bin", "dataset path")
		model   = flag.String("model", "model.json", "signature file")
		backend = flag.String("backend", "pregel", "pregel | mapreduce")
		workers = flag.Int("workers", 16, "partition count")
		pg      = flag.Bool("partial-gather", false, "enable partial-gather")
		bc      = flag.Bool("broadcast", false, "enable broadcast for hub out-edges")
		sn      = flag.Bool("shadow-nodes", false, "enable shadow-nodes preprocessing")
		part    = flag.String("partitioner", "hash", "vertex placement: hash | degree | ldg | fennel")
		lambda  = flag.Float64("lambda", 0.1, "hub threshold heuristic λ")
		spill   = flag.String("spill", "", "disk-spill dir (mapreduce backend)")
		outPath = flag.String("out", "", "optional predictions output (one class id per line)")

		parallel  = flag.Bool("parallel", true, "run workers on goroutines (results identical either way)")
		ckptDir   = flag.String("checkpoint-dir", "", "durable checkpoint directory (pregel backend): epochs are CRC-checksummed and atomically written, so a killed process can restart with -resume")
		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint every n supersteps (0 = 2 when -checkpoint-dir is set, else off)")
		ckptSync  = flag.String("checkpoint-sync", "always", "epoch durability: always (fsync per epoch, survives power loss) | never (no fsync; atomic epochs survive process crashes only)")
		resume    = flag.Bool("resume", false, "resume from the latest valid epoch in -checkpoint-dir; predictions are bit-identical to an uninterrupted run")
		outLogits = flag.String("out-logits", "", "optional raw logits output (little-endian float32 bits) for bit-exact comparison")
		dieAt     = flag.Int("die-at", -1, "kill -9 this process at the start of the given superstep, after pending epochs are durable (crash-resume testing)")
	)
	flag.Parse()

	g, err := inferturbo.LoadGraphFile(*data)
	if err != nil {
		fatalf("loading %s: %v", *data, err)
	}
	m, err := inferturbo.LoadModelFile(*model)
	if err != nil {
		fatalf("loading %s: %v", *model, err)
	}

	strat, err := inferturbo.PartitionStrategyByName(*part)
	if err != nil {
		fatalf("%v", err)
	}
	opts := inferturbo.InferOptions{
		NumWorkers: *workers, PartialGather: *pg, Broadcast: *bc, Partitioner: strat,
		ShadowNodes: *sn, Lambda: *lambda, SpillDir: *spill, Parallel: *parallel,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Resume: *resume,
	}
	switch *ckptSync {
	case "always":
		opts.CheckpointSync = checkpoint.SyncAlways
	case "never":
		opts.CheckpointSync = checkpoint.SyncNever
	default:
		fatalf("unknown -checkpoint-sync %q (want always | never)", *ckptSync)
	}
	if *dieAt >= 0 {
		// The hook runs on the engine goroutine after queued durable epochs
		// have drained, so every checkpoint the run reported before this
		// superstep is on disk when the process dies.
		target := *dieAt
		opts.SuperstepHook = func(step int) {
			if step == target {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}

	var res *inferturbo.InferResult
	var spec inferturbo.ClusterSpec
	switch *backend {
	case "pregel":
		res, err = runGuarded(func() (*inferturbo.InferResult, error) {
			return inferturbo.InferPregel(m, g, opts)
		})
		spec = inferturbo.PregelCluster()
	case "mapreduce":
		res, err = runGuarded(func() (*inferturbo.InferResult, error) {
			return inferturbo.InferMapReduce(m, g, opts)
		})
		spec = inferturbo.MapReduceCluster()
	default:
		fatalf("unknown backend %q", *backend)
	}
	if err != nil {
		if *resume {
			fatalf("inference: %v\nhint: -resume found unusable state in %q; a torn final epoch is skipped automatically, so this is a malformed (CRC-valid but inconsistent) epoch — clear the directory or drop -resume to rerun from scratch", err, *ckptDir)
		}
		fatalf("inference: %v", err)
	}

	st := res.Stats
	fmt.Printf("inferred %d nodes in %d supersteps on %s\n", g.NumNodes, st.Supersteps, *backend)
	fmt.Printf("messages sent      %d\n", st.MessagesSent)
	fmt.Printf("bytes sent         %d\n", st.BytesSent)
	if *backend == "pregel" {
		// The MapReduce shuffle does not attribute producers to reducers,
		// so remote traffic is only metered on the Pregel backend.
		fmt.Printf("cross-worker bytes %d (placement: %s)\n", st.RemoteBytes, *part)
	}
	if len(st.StepActive) > 0 {
		// Frontier size per superstep: a full pass holds at NumNodes; a delta
		// pass would show the change-set flood collapsing step by step.
		fmt.Printf("active vertices    %v per superstep\n", st.StepActive)
	}
	fmt.Printf("combined away      %d (partial-gather)\n", st.CombinedAway)
	fmt.Printf("broadcast hubs     %d node-steps\n", st.BroadcastHubs)
	fmt.Printf("shadow mirrors     %d\n", st.ShadowMirrors)
	if st.Checkpoints > 0 || st.Resumed {
		fmt.Printf("checkpoints        %d (%d bytes durable, %.1fms snapshot + %.1fms persist)\n",
			st.Checkpoints, st.CheckpointBytes,
			float64(st.CheckpointWallNs)/1e6, float64(st.PersistWallNs)/1e6)
		fmt.Printf("resumed            %v\n", st.Resumed)
	}
	if st.Recoveries > 0 {
		fmt.Printf("recoveries         %d (in-run checkpoint rollbacks)\n", st.Recoveries)
	}

	rep, err := inferturbo.SimulateCluster(spec, res)
	if err != nil {
		fatalf("cluster pricing: %v", err)
	}
	fmt.Printf("simulated wall     %.2fs on %q rates\n", rep.WallSeconds, spec.Name)
	fmt.Printf("simulated cpu·min  %.2f\n", rep.CPUMinutes)

	if res.Classes != nil {
		hist := map[int32]int{}
		for _, c := range res.Classes {
			hist[c]++
		}
		fmt.Printf("class histogram    %v\n", hist)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("creating %s: %v", *outPath, err)
		}
		for v := 0; v < g.NumNodes; v++ {
			if res.Classes != nil {
				fmt.Fprintf(f, "%d\n", res.Classes[v])
			} else {
				row := res.MultiLabel.Row(v)
				for j, x := range row {
					if j > 0 {
						fmt.Fprint(f, " ")
					}
					fmt.Fprintf(f, "%.0f", x)
				}
				fmt.Fprintln(f)
			}
		}
		if err := f.Close(); err != nil {
			fatalf("closing %s: %v", *outPath, err)
		}
		fmt.Printf("wrote predictions to %s\n", *outPath)
	}
	if *outLogits != "" {
		buf := make([]byte, 0, 4*len(res.Logits.Data))
		for _, x := range res.Logits.Data {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
		if err := os.WriteFile(*outLogits, buf, 0o644); err != nil {
			fatalf("writing %s: %v", *outLogits, err)
		}
		fmt.Printf("wrote raw logits to %s\n", *outLogits)
	}
}

// runGuarded converts any residual panic out of the inference engines into
// an error so a malformed checkpoint (or any other poisoned input that
// slipped past validation) exits with a diagnosable message instead of a
// bare stack trace.
func runGuarded(run func() (*inferturbo.InferResult, error)) (res *inferturbo.InferResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("internal panic: %v", p)
		}
	}()
	return run()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "infer: "+format+"\n", args...)
	os.Exit(1)
}
