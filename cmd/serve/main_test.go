package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"inferturbo"
)

// TestMain lets the test binary stand in for the serve command: a child
// launched with SERVE_MAIN_RUN=1 runs main() against its own flags. The
// kill-matrix tests SIGKILL a live server at its durability seams and
// restart it over the same session directory — a real crash, a real
// recovery, over real HTTP.
func TestMain(m *testing.M) {
	if os.Getenv("SERVE_MAIN_RUN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func writeFixture(t *testing.T) (dataPath, modelPath string) {
	t.Helper()
	dir := t.TempDir()
	ds := inferturbo.PowerLaw(400, inferturbo.SkewOut, 1)
	m := inferturbo.NewSAGEModel("serve-chaos", inferturbo.TaskSingleLabel,
		ds.Graph.FeatureDim(), 16, ds.Graph.NumClasses, 3, 0, inferturbo.NewRNG(7))
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

// syncBuf collects a child's output from its writer goroutine while the
// test polls it.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServe launches main() in a child on an ephemeral port and waits for
// its listen line. exited resolves with cmd.Wait's error.
func startServe(t *testing.T, args ...string) (cmd *exec.Cmd, out *syncBuf, baseURL string, exited chan error) {
	t.Helper()
	cmd = exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "SERVE_MAIN_RUN=1")
	out = &syncBuf{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited = make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})

	const marker = "serve: listening on "
	deadline := time.Now().Add(60 * time.Second)
	for {
		s := out.String()
		if i := strings.Index(s, marker); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				return cmd, out, "http://" + strings.TrimSpace(s[i+len(marker):i+j]), exited
			}
		}
		select {
		case err := <-exited:
			exited <- err
			t.Fatalf("server exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// TestServerGracefulShutdown: SIGTERM stops the server cleanly.
func TestServerGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess")
	}
	dataPath, modelPath := writeFixture(t)
	cmd, out, url, exited := startServe(t, "-data", dataPath, "-model", modelPath, "-workers", "2")
	if st, body := postJSON(t, url+"/v1/query", `{"roots":[1],"deadline_ms":5000}`); st != 200 {
		t.Fatalf("query: %d %s", st, body)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err
		if err != nil {
			t.Fatalf("SIGTERM exit: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not shut down on SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("no shutdown log:\n%s", out.String())
	}
}
