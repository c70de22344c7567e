// Command benchmark is the repo's one repeatable benchmark: three graph
// shapes driven through the public entry points (inference.RunPregel for the
// batch pass, serve.New/Start/Handler over loopback HTTP for serving), eleven
// end-to-end metrics per workload and a per-layer breakdown from a separate
// traced run. See README.md for the metric definitions and BENCHMARK.json
// for the contract (names, units, bounds).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// result is the last line of standard output: the contract the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the command's flags.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    int
	Scale    string
	AA       int
	Tmp      string
	Spec     string
}

func main() {
	var o options
	flag.StringVar(&o.Workload, "workload", "", "workload to run (hub-in, hub-out, wide); empty runs all, untraced then traced, one process each")
	flag.Int64Var(&o.Seed, "seed", 1, "seed for datagen, model init, query roots and mutations")
	flag.Float64Var(&o.Seconds, "seconds", 30, "how long one run measures (three laps of seconds/3)")
	flag.IntVar(&o.Trace, "trace", 0, "1 = traced run: spans around every call into a layer, per-layer metrics, Chrome-trace JSON")
	flag.StringVar(&o.Scale, "scale", "full", "full, or smoke (~1k-node graphs, for the smoke test)")
	flag.IntVar(&o.AA, "aa", 0, "self-agreement: run the benchmark 2N times alternating set A / set B and compare medians to the bounds")
	flag.StringVar(&o.Tmp, "tmp", "", "directory for graph files, session dirs and traces (default: next to the executable)")
	flag.StringVar(&o.Spec, "spec", "", "path to BENCHMARK.json (default: ./BENCHMARK.json or ../BENCHMARK.json)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if o.Tmp == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		o.Tmp = filepath.Dir(exe)
	}
	var err error
	switch {
	case o.AA > 0:
		err = runAA(o, os.Stdout)
	case o.Workload == "":
		err = runAll(o, os.Stdout)
	default:
		err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints the result line.
// A failed check or operation is reported in the line and as a non-zero exit.
func runOne(o options, out io.Writer) error {
	w, ok := workloadByName(o.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.Workload)
	}
	sc, ok := scaleByName(o.Scale)
	if !ok {
		return fmt.Errorf("unknown scale %q", o.Scale)
	}
	if o.Seconds <= 0 || (o.Trace != 0 && o.Trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	dir, err := os.MkdirTemp(o.Tmp, "run-"+w.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep, err := measure(w, sc, o, dir, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep.result(o.Trace == 1))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: correctness block failed (%d of %d operations failed, %d checks failed)",
			w.Name, rep.Failed, rep.Attempted, len(rep.CheckErrs))
	}
	return nil
}

// report is everything one run measured.
type report struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	CheckErrs []string
	EndToEnd  []metric
	PerLayer  []metric
}

func (r *report) result(traced bool) result {
	ms := r.EndToEnd
	if traced {
		ms = r.PerLayer
	}
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue, len(ms))}
	for _, m := range ms {
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return res
}

// measure runs set-up (several times; setup_s is the median), the three laps,
// the correctness block and — when traced — the per-layer probes.
func measure(w workload, sc scale, o options, dir string, out io.Writer) (*report, error) {
	var tr *tracer
	if o.Trace == 1 {
		tr = newTracer(w.Name)
	}
	fmt.Fprintf(out, "# %s seed=%d seconds=%g scale=%s trace=%d %s\n", w.Name, o.Seed, o.Seconds, sc.Name, o.Trace, hostHeader())

	var f *fixture
	var parts []setupTimes
	for i := 0; i < sc.Setups; i++ {
		if f != nil {
			f.close()
		}
		var err error
		if f, err = newFixture(w, sc, o.Seed, dir, tr, -1); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		parts = append(parts, f.setup)
	}
	defer f.close()

	s := &samples{}
	if err := f.runLaps(time.Duration(o.Seconds*float64(time.Second)), s); err != nil {
		return nil, err
	}
	refForward := f.passChecks(s)

	rep := &report{Workload: w.Name, Attempted: s.attempted, Failed: s.failed, CheckErrs: s.checkErrs}
	rep.EndToEnd = s.endToEnd(parts)
	if tr != nil {
		layers, err := f.perLayer(s, parts, refForward, dir)
		if err != nil {
			return nil, fmt.Errorf("per-layer probes: %w", err)
		}
		rep.PerLayer = layers
	}
	for _, m := range append(append([]metric(nil), rep.EndToEnd...), rep.PerLayer...) {
		s.check(finite(m.Value), "metric %s is not finite", m.Name)
	}
	rep.CheckErrs = s.checkErrs
	rep.Correct = s.failed == 0 && len(s.checkErrs) == 0

	printReport(out, rep, s, tr, o)
	if tr == nil {
		if err := saveUntraced(o, rep); err != nil {
			return nil, fmt.Errorf("record untraced values: %w", err)
		}
	} else {
		path := filepath.Join(o.Tmp, fmt.Sprintf("trace-%s-seed%d.json", w.Name, o.Seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(out, "# chrome trace: %s\n", path)
	}
	return rep, nil
}
