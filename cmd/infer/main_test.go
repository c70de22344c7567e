package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"inferturbo"
)

// TestMain lets the test binary stand in for the infer command: a child
// process launched with INFER_MAIN_RUN=1 runs main() against its own flags,
// so a test drives the real command line end to end.
func TestMain(m *testing.M) {
	if os.Getenv("INFER_MAIN_RUN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeFixture generates and saves a small dataset + model, shared by every
// subprocess run. The model is deterministic (seeded init, no training
// needed). hops sets the SAGE depth: h hops → h+1 supersteps.
func writeFixture(t *testing.T, hops int) (dataPath, modelPath string) {
	t.Helper()
	dir := t.TempDir()
	ds := inferturbo.PowerLaw(400, inferturbo.SkewOut, 1)
	m := inferturbo.NewSAGEModel("infer-cli", inferturbo.TaskSingleLabel,
		ds.Graph.FeatureDim(), 16, ds.Graph.NumClasses, hops, 0, inferturbo.NewRNG(7))
	dataPath = filepath.Join(dir, "graph.bin")
	modelPath = filepath.Join(dir, "model.json")
	if err := inferturbo.SaveGraphFile(ds.Graph, dataPath); err != nil {
		t.Fatal(err)
	}
	if err := inferturbo.SaveModelFile(m, modelPath); err != nil {
		t.Fatal(err)
	}
	return dataPath, modelPath
}

// runInfer executes main() in a child process with the given flags,
// returning combined output and the run error.
func runInfer(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "INFER_MAIN_RUN=1")
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	return buf.String(), err
}

// TestWorkerCountsByteIdentical is the determinism guarantee at the command
// line: one serial worker under hash placement and four goroutine workers
// under LDG placement write byte-identical raw logits.
func TestWorkerCountsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dataPath, modelPath := writeFixture(t, 3)
	work := t.TempDir()
	serialBin := filepath.Join(work, "serial.bin")
	parallelBin := filepath.Join(work, "parallel.bin")
	base := []string{"-data", dataPath, "-model", modelPath}

	out, err := runInfer(t, append(base, "-workers", "1", "-parallel=false", "-out-logits", serialBin)...)
	if err != nil {
		t.Fatalf("serial run: %v\n%s", err, out)
	}
	// The cluster cost print keeps significant digits at laptop scale.
	var wall float64
	i := strings.Index(out, "simulated wall")
	if i < 0 {
		t.Fatalf("no simulated wall line in output:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "simulated wall %gs", &wall); err != nil || !(wall > 0) {
		t.Fatalf("simulated wall %g (%v), want > 0, in output:\n%s", wall, err, out)
	}
	if out, err := runInfer(t, append(base, "-workers", "4", "-parallel", "-partitioner", "ldg", "-out-logits", parallelBin)...); err != nil {
		t.Fatalf("parallel run: %v\n%s", err, out)
	}
	serial, err := os.ReadFile(serialBin)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(parallelBin)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 || !bytes.Equal(serial, parallel) {
		t.Fatalf("logits differ between -workers 1 serial and -workers 4 -parallel -partitioner ldg (%d vs %d bytes)", len(serial), len(parallel))
	}
}
