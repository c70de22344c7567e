package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json: the names, units, directions and bounds the
// benchmark is held to.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from path, or from the working directory,
// its parent, or the executable's parent directory when path is empty.
func loadSpec(path string) (*spec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
		if exe, err := os.Executable(); err == nil {
			candidates = append(candidates, filepath.Join(filepath.Dir(exe), "..", "BENCHMARK.json"))
		}
	}
	var firstErr error
	for _, c := range candidates {
		b, err := os.ReadFile(c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var sp spec
		if err := json.Unmarshal(b, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &sp, nil
	}
	return nil, firstErr
}

// child runs this executable on one workload in a fresh process, streams its
// report to out and returns the parsed result line.
func child(o options, workload string, seed int64, trace int, out io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-scale", o.Scale, "-tmp", o.Tmp)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if runErr != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// selected is the workload list a multi-run mode covers.
func selected(o options) ([]string, error) {
	if o.Workload != "" {
		if _, ok := workloadByName(o.Workload); !ok {
			return nil, fmt.Errorf("unknown workload %q", o.Workload)
		}
		return []string{o.Workload}, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names, nil
}

// runAll is the one command that prints everything: each workload in a fresh
// process, untraced (the end-to-end metrics) then traced (the per-layer
// metrics and the tracing overhead).
func runAll(o options, out io.Writer) error {
	names, _ := selected(o)
	var failed []string
	for _, name := range names {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(o, name, o.Seed, trace, out); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				failed = append(failed, fmt.Sprintf("%s(trace=%d)", name, trace))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, ", "))
	}
	return nil
}

// runAA is the self-agreement mode: the whole benchmark 2N times, runs
// alternating between set A and set B (run i of either set uses seed+i), then
// per (workload, metric) both set medians, their relative difference, the
// bound it must stay within, and each set's spread — the distance between
// the first and third quartile as a share of the median. Identical code on
// both sides, so every difference is noise: it fails if one exceeds its
// bound.
func runAA(o options, out io.Writer) error {
	sp, err := loadSpec(o.Spec)
	if err != nil {
		return fmt.Errorf("-aa needs BENCHMARK.json for the bounds: %w", err)
	}
	names, err := selected(o)
	if err != nil {
		return err
	}
	// values[workload][metric][set] are that set's N observations.
	values := make(map[string]map[string]*[2][]float64)
	for i := 0; i < 2*o.AA; i++ {
		set, seed := i%2, o.Seed+int64(i/2)
		for _, name := range names {
			fmt.Fprintf(out, "## run %d/%d set %c %s seed %d\n", i+1, 2*o.AA, 'A'+set, name, seed)
			res, err := child(o, name, seed, 0, io.Discard)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: correct=false", name, seed)
			}
			for _, m := range sp.EndToEnd {
				fmt.Fprintf(out, " %s=%.5g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Fprintln(out)
			if values[name] == nil {
				values[name] = make(map[string]*[2][]float64)
			}
			for m, v := range res.Metrics {
				if values[name][m] == nil {
					values[name][m] = new([2][]float64)
				}
				values[name][m][set] = append(values[name][m][set], v.Value)
			}
		}
	}

	fmt.Fprintf(out, "%-8s %-22s %12s %12s %8s %8s %9s %9s  %s\n",
		"workload", "metric", "median_A", "median_B", "diff%", "bound%", "spreadA%", "spreadB%", "verdict")
	var over []string
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			v := values[name][m.Name]
			if v == nil {
				return fmt.Errorf("%s: metric %s was not emitted", name, m.Name)
			}
			a, b := median(v[0]), median(v[1])
			diff := (b - a) / a
			verdict := "ok"
			if diff < -m.Bound || diff > m.Bound {
				verdict = "OVER BOUND"
				over = append(over, name+"/"+m.Name)
			} else if diff < -m.Bound/2 || diff > m.Bound/2 {
				verdict = "over half"
			}
			fmt.Fprintf(out, "%-8s %-22s %12.6g %12.6g %+8.2f %8.1f %9.2f %9.2f  %s\n",
				name, m.Name, a, b, 100*diff, 100*m.Bound, 100*spread(v[0]), 100*spread(v[1]), verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("two sets of runs of identical code differ by more than the bound on: %s", strings.Join(over, ", "))
	}
	return nil
}

// spread is the distance between the first and the third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(xs, n=4)
// gives them (the exclusive method) — the estimator the benchmark's
// steadiness is judged by.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}
