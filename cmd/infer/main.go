// Command infer runs full-graph InferTurbo inference of a trained signature
// file over a dataset on the Pregel engine, with the skew strategies
// selectable, and prints predictions, traffic stats and the simulated
// cluster cost.
//
// Usage:
//
//	infer -data graph.bin -model model.json \
//	      -workers 100 -partial-gather -broadcast -shadow-nodes
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"

	"inferturbo"
)

func main() {
	var (
		data    = flag.String("data", "graph.bin", "dataset path")
		model   = flag.String("model", "model.json", "signature file")
		workers = flag.Int("workers", 16, "partition count")
		pg      = flag.Bool("partial-gather", false, "enable partial-gather")
		bc      = flag.Bool("broadcast", false, "enable broadcast for hub out-edges")
		sn      = flag.Bool("shadow-nodes", false, "enable shadow-nodes preprocessing")
		part    = flag.String("partitioner", "hash", "vertex placement: hash | degree | ldg | fennel")
		lambda  = flag.Float64("lambda", 0.1, "hub threshold heuristic λ")
		outPath = flag.String("out", "", "optional predictions output (one class id per line)")

		parallel  = flag.Bool("parallel", true, "run workers on goroutines (results identical either way)")
		outLogits = flag.String("out-logits", "", "optional raw logits output (little-endian float32 bits) for bit-exact comparison")
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
		ShadowNodes: *sn, Lambda: *lambda, Parallel: *parallel,
	}

	res, err := runGuarded(func() (*inferturbo.InferResult, error) {
		return inferturbo.InferPregel(m, g, opts)
	})
	if err != nil {
		fatalf("inference: %v", err)
	}

	st := res.Stats
	fmt.Printf("inferred %d nodes in %d supersteps\n", g.NumNodes, st.Supersteps)
	fmt.Printf("messages sent      %d\n", st.MessagesSent)
	fmt.Printf("bytes sent         %d\n", st.BytesSent)
	fmt.Printf("cross-worker bytes %d (placement: %s)\n", st.RemoteBytes, *part)
	if len(st.StepActive) > 0 {
		// Frontier size per superstep: a full pass holds at NumNodes; a delta
		// pass would show the change-set flood collapsing step by step.
		fmt.Printf("active vertices    %v per superstep\n", st.StepActive)
	}
	fmt.Printf("combined away      %d (partial-gather)\n", st.CombinedAway)
	fmt.Printf("broadcast hubs     %d node-steps\n", st.BroadcastHubs)
	fmt.Printf("shadow mirrors     %d\n", st.ShadowMirrors)

	spec := inferturbo.PregelCluster()
	rep, err := inferturbo.SimulateCluster(spec, res)
	if err != nil {
		fatalf("cluster pricing: %v", err)
	}
	fmt.Printf("simulated wall     %.3gs on %q rates\n", rep.WallSeconds, spec.Name)
	fmt.Printf("simulated cpu·min  %.3g\n", rep.CPUMinutes)

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
// an error so a poisoned input that slipped past validation exits with a
// diagnosable message instead of a bare stack trace.
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
