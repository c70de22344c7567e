// Command bench regenerates every table and figure of the paper's
// evaluation section and prints them side-by-side with the paper's shape
// claims. The EXPERIMENTS.md at the repository root records one full run.
//
// Usage:
//
//	bench                 # run everything at the full preset
//	bench -scale quick    # the fast preset the tests use
//	bench -exp table3     # one experiment
//	bench -perf out.json  # plane + partitioning benchmarks, identity checks as JSON
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"inferturbo/internal/experiments"
	"inferturbo/internal/tensor"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "table1|table2|table3|table4|fig7|fig8|fig9|fig10|fig11|fig12|fig13|all")
		scale = flag.String("scale", "full", "quick | full")
		perf  = flag.String("perf", "", "run the perf suites (planes, checkpointing, partitioning, serving, delta, recovery, identity) and write JSON results to this path")

		// Identity-gate sizing: quick trims the strategy lattice to two
		// worker counts so PR CI stays inside its time budget; full (the
		// bench-full.yml setting) runs the whole 128-combo lattice. Empty
		// picks by -scale.
		combos = flag.String("identity-combos", "", "identity gate combo set: quick | full (default: quick at -scale quick, else full)")

		// Kernel tuning knobs (0 = default). Any setting is bit-identical;
		// these trade wall-clock only.
		kWorkers   = flag.Int("kernel-workers", 0, "tensor kernel goroutines per call (0 = GOMAXPROCS, 1 = serial)")
		kBlock     = flag.Int("kernel-block", 0, "MatMul cache-block size in k-rows (0 = 64)")
		kThreshold = flag.Int("kernel-threshold", 0, "min scalar ops before a kernel parallelizes (0 = 32768)")
	)
	flag.Parse()
	tensor.SetTuning(tensor.Tuning{Workers: *kWorkers, BlockSize: *kBlock, ParallelThreshold: *kThreshold})

	if *perf != "" {
		if *scale != "quick" && *scale != "full" {
			fatalf("unknown scale %q", *scale)
		}
		if err := runPerf(*perf, *scale, *combos); err != nil {
			fatalf("perf: %v", err)
		}
		fmt.Printf("perf results written to %s\n", *perf)
		return
	}

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.Quick()
	case "full":
		s = experiments.Full()
	default:
		fatalf("unknown scale %q", *scale)
	}

	runners := []struct {
		name string
		run  func() (*experiments.Table, error)
	}{
		{"table1", func() (*experiments.Table, error) { t, _ := experiments.Table1(s); return t, nil }},
		{"table2", func() (*experiments.Table, error) { t, _, err := experiments.Table2(s); return t, err }},
		{"table3", func() (*experiments.Table, error) { t, _, err := experiments.Table3(s); return t, err }},
		{"table4", func() (*experiments.Table, error) { t, _, err := experiments.Table4(s); return t, err }},
		{"fig7", func() (*experiments.Table, error) { t, _, err := experiments.Fig7(s); return t, err }},
		{"fig8", func() (*experiments.Table, error) { t, _, err := experiments.Fig8(s); return t, err }},
		{"fig9", func() (*experiments.Table, error) { t, _, err := experiments.Fig9(s); return t, err }},
		{"fig10", func() (*experiments.Table, error) { t, _, err := experiments.Fig10(s); return t, err }},
		{"fig11", func() (*experiments.Table, error) { t, _, err := experiments.Fig11(s); return t, err }},
		{"fig12", func() (*experiments.Table, error) { t, _, err := experiments.Fig12(s); return t, err }},
		{"fig13", func() (*experiments.Table, error) { t, _, err := experiments.Fig13(s); return t, err }},
	}

	ran := 0
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran++
		start := time.Now()
		t, err := r.run()
		if err != nil {
			fatalf("%s: %v", r.name, err)
		}
		fmt.Println(t.String())
		fmt.Printf("(%s regenerated in %.1fs at scale %q)\n\n", r.name, time.Since(start).Seconds(), s.Name)
	}
	if ran == 0 {
		fatalf("unknown experiment %q; want one of table1..4, fig7..13, all", *exp)
	}
	if *exp == "all" {
		fmt.Println(strings.Repeat("-", 60))
		fmt.Println("all experiments regenerated; see EXPERIMENTS.md for the recorded run")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
