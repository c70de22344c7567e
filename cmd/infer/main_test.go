package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"inferturbo"
)

// TestMain lets the test binary stand in for the infer command: a child
// process launched with INFER_MAIN_RUN=1 runs main() against its own flags.
// That is what makes a real kill-9-and-resume test possible — the child is
// genuinely SIGKILLed mid-run and a second child resumes from the epochs the
// first one made durable.
func TestMain(m *testing.M) {
	if os.Getenv("INFER_MAIN_RUN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeFixture generates and saves a small dataset + model, shared by every
// subprocess run. The model is deterministic (seeded init, no training
// needed). hops sets the SAGE depth: h hops → h+1 supersteps, and with the
// default CheckpointEvery=2 the run makes durable epochs at supersteps
// 2, 4, … (the superstep-0 seed stays in memory only).
func writeFixture(t *testing.T, hops int) (dataPath, modelPath string) {
	t.Helper()
	dir := t.TempDir()
	ds := inferturbo.PowerLaw(400, inferturbo.SkewOut, 1)
	m := inferturbo.NewSAGEModel("kill-resume", inferturbo.TaskSingleLabel,
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

// TestKillAndResumeByteIdentical is the end-to-end crash-resume guarantee:
// serial and parallel, a run SIGKILLed mid-superstep and restarted with
// -resume produces logits byte-identical to an uninterrupted run.
func TestKillAndResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess matrix")
	}
	dataPath, modelPath := writeFixture(t, 3) // 4 supersteps; epoch at step 2
	base := []string{"-data", dataPath, "-model", modelPath, "-workers", "4"}

	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			combo := append([]string{}, base...)
			combo = append(combo, fmt.Sprintf("-parallel=%v", parallel))
			work := t.TempDir()
			cleanBin := filepath.Join(work, "clean.bin")
			resumedBin := filepath.Join(work, "resumed.bin")
			ckptDir := filepath.Join(work, "ckpt")

			out, err := runInfer(t, append(combo, "-out-logits", cleanBin)...)
			if err != nil {
				t.Fatalf("clean run: %v\n%s", err, out)
			}

			// Kill the process for real at superstep 3 (the epoch for
			// superstep 2 is durable by then).
			out, err = runInfer(t, append(combo, "-checkpoint-dir", ckptDir, "-die-at", "3")...)
			if err == nil {
				t.Fatalf("die-at run survived:\n%s", out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
				t.Fatalf("die-at run did not die by SIGKILL: %v\n%s", err, out)
			}
			if names, _ := filepath.Glob(filepath.Join(ckptDir, "epoch-*.ckpt")); len(names) == 0 {
				t.Fatal("killed run left no durable epochs")
			}

			out, err = runInfer(t, append(combo,
				"-checkpoint-dir", ckptDir, "-resume", "-out-logits", resumedBin)...)
			if err != nil {
				t.Fatalf("resume run: %v\n%s", err, out)
			}
			if !strings.Contains(out, "resumed            true") {
				t.Fatalf("resume run did not report resuming:\n%s", out)
			}

			clean, err := os.ReadFile(cleanBin)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := os.ReadFile(resumedBin)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(clean, resumed) {
				t.Fatal("resumed logits differ from uninterrupted run")
			}
		})
	}
}

// TestResumePastTornEpoch: corrupt the newest durable epoch after a kill;
// the resumed run must fall back to the previous epoch and still match the
// uninterrupted run byte for byte.
func TestResumePastTornEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	// 5 hops → 6 supersteps, so durable epochs exist for supersteps 2 and 4
	// and dying at 5 leaves both on disk: corrupting the newest (4) forces
	// the fallback to 2.
	dataPath, modelPath := writeFixture(t, 5)
	work := t.TempDir()
	cleanBin := filepath.Join(work, "clean.bin")
	resumedBin := filepath.Join(work, "resumed.bin")
	ckptDir := filepath.Join(work, "ckpt")
	base := []string{"-data", dataPath, "-model", modelPath, "-workers", "4"}

	if out, err := runInfer(t, append(base, "-out-logits", cleanBin)...); err != nil {
		t.Fatalf("clean run: %v\n%s", err, out)
	}
	if out, err := runInfer(t, append(base, "-checkpoint-dir", ckptDir, "-die-at", "5")...); err == nil {
		t.Fatalf("die-at run survived:\n%s", out)
	}
	names, _ := filepath.Glob(filepath.Join(ckptDir, "epoch-*.ckpt"))
	if len(names) < 2 {
		t.Fatalf("want >= 2 durable epochs, got %v", names)
	}
	// Tear the newest epoch: truncate away its tail (footer included).
	latest := names[len(names)-1]
	b, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(latest, b[:len(b)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := runInfer(t, append(base, "-checkpoint-dir", ckptDir, "-resume", "-out-logits", resumedBin)...)
	if err != nil {
		t.Fatalf("resume run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "resumed            true") {
		t.Fatalf("resume run did not report resuming:\n%s", out)
	}
	clean, _ := os.ReadFile(cleanBin)
	resumed, _ := os.ReadFile(resumedBin)
	if !bytes.Equal(clean, resumed) {
		t.Fatal("resumed logits differ from uninterrupted run after torn-epoch fallback")
	}
}
