package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// mutateBody builds a /v1/mutate batch rewriting one node's features at the
// fixture's 200-dim width, with a val-derived pattern so batches differ.
func mutateBody(node int, val float64) string { return mutateNodesBody(node, 1, val) }

// mutateNodesBody rewrites the features of nodes first..first+count-1.
func mutateNodesBody(first, count int, val float64) string {
	var b strings.Builder
	b.WriteString(`{"features":[`)
	for node := first; node < first+count; node++ {
		if node > first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"node":%d,"features":[`, node)
		for i := 0; i < 200; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", val*float64(i%5)-val)
		}
		b.WriteString(`]}`)
	}
	b.WriteString(`]}`)
	return b.String()
}

// oracleLogits is the never-crashed reference: a plain incremental server
// over the same fixture applies the same batches, refreshes, and dumps its
// resident store. Crash-matrix subtests compare byte-for-byte against it.
func oracleLogits(t *testing.T, dataPath, modelPath string, batches []string) []byte {
	t.Helper()
	_, _, url, _ := startServe(t, "-data", dataPath, "-model", modelPath, "-workers", "4")
	for i, b := range batches {
		if st, body := postJSON(t, url+"/v1/mutate", b); st != 202 {
			t.Fatalf("oracle mutate %d: %d %s", i, st, body)
		}
	}
	if st, body := postJSON(t, url+"/v1/refresh", ""); st != 202 {
		t.Fatalf("oracle refresh kick: %d %s", st, body)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, sb := httpGet(t, url+"/v1/stats")
		var stats struct {
			Epoch   int64 `json:"epoch"`
			Applied int64 `json:"mutations_applied"`
		}
		if st == 200 && json.Unmarshal(sb, &stats) == nil &&
			stats.Epoch >= 2 && stats.Applied == int64(len(batches)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oracle refresh never completed: %s", sb)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, b := httpGet(t, url+"/v1/logits")
	if st != 200 || len(b) == 0 {
		t.Fatalf("oracle logits: status=%d len=%d", st, len(b))
	}
	return b
}

// waitStats polls /v1/stats until its body contains want.
func waitStats(t *testing.T, url, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, body := httpGet(t, url+"/v1/stats"); st == 200 && strings.Contains(string(body), want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/stats never reported %s", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitKilled(t *testing.T, exited chan error) {
	t.Helper()
	select {
	case err := <-exited:
		exited <- err // keep startServe's cleanup unblocked
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
			t.Fatalf("server did not die by SIGKILL: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server was not killed at the armed seam")
	}
}

// TestServerDurableKillMatrix is the tentpole's end-to-end proof: a durable
// server is SIGKILLed — for real, via re-exec — at each seam of the
// mutate→refresh pipeline, and a clean restart on the same -session-dir must
// serve /v1/logits byte-identical to a never-crashed oracle. Zero
// acknowledged batches lost at any seam.
func TestServerDurableKillMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos")
	}
	dataPath, modelPath := writeFixture(t)
	batches := []string{mutateBody(3, 1.5), mutateBody(11, -2.25), mutateBody(42, 0.5)}
	want := oracleLogits(t, dataPath, modelPath, batches)

	// The seams past the first link run two rounds. The first round's
	// nodes reach few others within the model's 3 hops, so its kicked
	// refresh runs by delta and persists a link; that link is durable
	// before the second round's batch and kick. The small second batch
	// refreshes by delta too (a second link); the large one seeds more than
	// the cutover share of the fixture's 400 nodes, so its refresh is full
	// and its persist folds the chain into a base.
	local := []string{mutateBody(2, 1.5), mutateBody(6, -2.25), mutateBody(11, 0.5)}
	small, large := mutateBody(13, 3.5), mutateNodesBody(100, 120, -0.75)
	cases := []struct {
		name     string
		killArgs []string
		kick     bool   // whether the seam needs a refresh kicked to arm
		second   string // second-round batch, "" for none
	}{
		// The 3rd mutation is WAL-durable and staged, but the process dies
		// before its 202 is written: recoverability precedes acknowledgment,
		// so even this batch must survive.
		{"post-mutate-ack", []string{"-die-on-mutate", "3"}, false, ""},
		// Superstep 1 of the 2nd pass: the kicked refresh dies mid-flight.
		// No epoch with an advanced replay mark exists yet; the WAL carries
		// everything.
		{"mid-refresh", []string{"-die-at", "1", "-die-on-refresh", "2"}, true, ""},
		// The persist following the kicked refresh dies at its first write:
		// the newest durable epoch still has the pre-refresh mark.
		{"mid-slab-persist", []string{"-die-on-slab-persist", "2"}, true, ""},
		// The refresh's epoch is durable but its WAL truncation never runs:
		// the replay-mark filter must drop the covered records, not
		// double-apply them.
		{"pre-wal-truncate", []string{"-die-on-wal-truncate", "1"}, true, ""},
		// The second link's persist dies: base + first link are on disk, the
		// WAL holds the second round's batch.
		{"mid-link-persist", []string{"-die-on-slab-persist", "3"}, true, small},
		// The fold dies: the old base and its one link stay the durable
		// state, and the WAL holds the batch the fold would have covered.
		{"mid-fold", []string{"-die-on-slab-persist", "3"}, true, large},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, first := want, batches
			if tc.second != "" {
				first = local
				want = oracleLogits(t, dataPath, modelPath, append(local[:len(local):len(local)], tc.second))
			}
			sess := filepath.Join(t.TempDir(), "session")
			base := []string{"-data", dataPath, "-model", modelPath, "-workers", "4", "-session-dir", sess}
			_, _, url, exited := startServe(t, append(base, tc.killArgs...)...)
			// The prime's epoch persists in the background; every seam below
			// assumes it is on disk, and the drain no longer takes long enough
			// to guarantee that by accident.
			waitStats(t, url, `"session_epochs":1`)

			for i, b := range first {
				st, body := postJSON(t, url+"/v1/mutate", b)
				killing := tc.name == "post-mutate-ack" && i == len(first)-1
				if st != 202 && !killing {
					t.Fatalf("mutate %d: %d %s", i, st, body)
				}
			}
			if tc.kick {
				// The kick (or the machinery behind it) dies at the armed
				// seam; its status is irrelevant.
				postJSON(t, url+"/v1/refresh", "")
			}
			if tc.second != "" {
				waitStats(t, url, `"session_epochs":2`)
				if st, body := postJSON(t, url+"/v1/mutate", tc.second); st != 202 {
					t.Fatalf("second-round mutate: %d %s", st, body)
				}
				postJSON(t, url+"/v1/refresh", "")
			}
			waitKilled(t, exited)
			if tc.second != "" {
				// The kill left the prime's base and the first link, nothing
				// after them.
				links, _ := filepath.Glob(filepath.Join(sess, "slabs", "link-*.ckpt"))
				bases, _ := filepath.Glob(filepath.Join(sess, "slabs", "epoch-*.ckpt"))
				if len(links) != 1 || len(bases) != 1 {
					t.Fatalf("session dir at the kill: links %v, bases %v; want one of each", links, bases)
				}
			}

			_, out2, url2, _ := startServe(t, base...)
			if !strings.Contains(out2.String(), "durable session resumed=true") {
				t.Fatalf("restart did not resume the durable session:\n%s", out2.String())
			}
			st, got := httpGet(t, url2+"/v1/logits")
			if st != 200 {
				t.Fatalf("logits after restart: %d", st)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: restarted store differs from the never-crashed oracle", tc.name)
			}
			if st, sb := httpGet(t, url2+"/v1/stats"); st != 200 || !strings.Contains(string(sb), `"mutations_lost":0`) {
				t.Fatalf("stats after restart: %d %s", st, sb)
			}
		})
	}
}

// TestServerDurableGracefulShutdown: SIGTERM on a durable server running at
// -checkpoint-sync never must still exit with a power-loss-safe WAL — Close
// fsyncs regardless of sync mode — so a staged-but-unrefreshed batch
// survives the restart.
func TestServerDurableGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess")
	}
	dataPath, modelPath := writeFixture(t)
	want := oracleLogits(t, dataPath, modelPath, []string{mutateBody(7, 2)})

	sess := filepath.Join(t.TempDir(), "session")
	base := []string{"-data", dataPath, "-model", modelPath, "-workers", "4",
		"-session-dir", sess, "-checkpoint-sync", "never"}
	cmd, out, url, exited := startServe(t, base...)
	if st, body := postJSON(t, url+"/v1/mutate", mutateBody(7, 2)); st != 202 {
		t.Fatalf("mutate: %d %s", st, body)
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
		t.Fatalf("durable server did not shut down on SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shutdown complete") {
		t.Fatalf("no graceful completion log:\n%s", out.String())
	}

	_, out2, url2, _ := startServe(t, base...)
	if s := out2.String(); !strings.Contains(s, "durable session resumed=true") || !strings.Contains(s, "wal_replayed=1") {
		t.Fatalf("restart after graceful stop:\n%s", s)
	}
	st, got := httpGet(t, url2+"/v1/logits")
	if st != 200 || !bytes.Equal(got, want) {
		t.Fatalf("batch staged before SIGTERM lost across restart (status=%d)", st)
	}
}
