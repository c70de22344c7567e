package serve

// Durable serving: the mutation WAL and the session-epoch truncation
// protocol. With Config.SessionDir set, the server couples two durability
// mechanisms around the mutate→refresh pipeline:
//
//  1. handleMutate appends each validated delta batch to the WAL *before*
//     staging or acknowledging it, under stagedMu so WAL order equals staged
//     order. An acknowledged batch is therefore always either in the durable
//     resident state or in the WAL.
//  2. The refresh drain records the highest staged sequence it consumed as
//     the session's replay mark; the epoch the session persists after that
//     pass carries the mark, and onSessionPersist — running on the session's
//     persister goroutine strictly after the epoch is durable — truncates
//     the WAL through it.
//
// Restart replays the other direction: New resumes the session from the
// newest valid epoch, re-stages every WAL record above the epoch's replay
// mark, and Start's initial refresh consumes them as one delta pass — logits
// byte-identical to a process that never crashed. A crash between persist
// and truncation merely leaves covered records in the WAL; the replay-mark
// filter drops them, so nothing double-applies.
//
// The serve-level FaultPoints (wal-append, wal-truncate, slab-persist) are
// armed from Config.Refresh.Faults and fire in-process as survivable
// degradations here; the re-exec tests layer real SIGKILLs on the same seams
// through the cmd/serve -die-on-* flags.

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/pregel"
)

// stagedDelta is one acknowledged mutation batch awaiting a refresh drain,
// tagged with its WAL sequence number (0 when the server runs without a WAL).
type stagedDelta struct {
	seq uint64
	d   graph.Delta
}

// encodeDelta and decodeDelta are the WAL record payload codec: one delta
// batch in graph.AppendDelta's encoding (version graph.DeltaVersion).
var (
	encodeDelta = graph.AppendDelta
	decodeDelta = graph.DecodeDelta
)

// serveFaults arms the serve-level fault points from a FaultPlan. Each entry
// fires once when its point's occurrence counter reaches Fault.Superstep
// (reinterpreted as a zero-based occurrence index).
type serveFaults struct {
	mu    sync.Mutex
	armed map[pregel.FaultPoint][]int
	seen  map[pregel.FaultPoint]int
}

func newServeFaults(plan *pregel.FaultPlan) *serveFaults {
	if plan == nil {
		return nil
	}
	f := &serveFaults{
		armed: make(map[pregel.FaultPoint][]int),
		seen:  make(map[pregel.FaultPoint]int),
	}
	for _, c := range plan.Crashes {
		switch c.Point {
		case pregel.FaultWALAppend, pregel.FaultWALTruncate, pregel.FaultSlabPersist:
			f.armed[c.Point] = append(f.armed[c.Point], c.Superstep)
		}
	}
	if len(f.armed) == 0 {
		return nil
	}
	return f
}

// fire advances point's occurrence counter and reports whether an armed
// fault targets this occurrence (consuming it).
func (f *serveFaults) fire(p pregel.FaultPoint) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	occ := f.seen[p]
	f.seen[p] = occ + 1
	for i, at := range f.armed[p] {
		if at == occ {
			f.armed[p] = append(f.armed[p][:i], f.armed[p][i+1:]...)
			return true
		}
	}
	return false
}

// openDurable wires the WAL and the resumed-or-fresh durable session into a
// just-constructed Server. Called by New when cfg.SessionDir is set; any
// failure is loud — a server asked to be durable must not silently fall back
// to losing state.
func (s *Server) openDurable() error {
	cfg := &s.cfg
	if cfg.DisableIncremental {
		return fmt.Errorf("serve: SessionDir requires incremental mode (remove DisableIncremental)")
	}
	s.faults = newServeFaults(cfg.Refresh.Faults)

	opts := cfg.Refresh
	opts.SessionDir = sessionSlabDir(cfg.SessionDir)
	userBegin := opts.SessionPersistBeginHook
	opts.SessionPersistBeginHook = func(mark uint64) error {
		if userBegin != nil {
			if err := userBegin(mark); err != nil {
				return err
			}
		}
		if s.faults.fire(pregel.FaultSlabPersist) {
			return fmt.Errorf("serve: injected slab-persist fault at mark %d", mark)
		}
		return nil
	}
	userDone := opts.SessionPersistHook
	opts.SessionPersistHook = func(epoch int, mark uint64, err error) {
		s.onSessionPersist(epoch, mark, err)
		if userDone != nil {
			userDone(epoch, mark, err)
		}
	}

	sess, resumed, err := inference.ResumeSession(cfg.Model, opts)
	if err != nil {
		return fmt.Errorf("serve: resume durable session: %w", err)
	}
	if !resumed {
		sess, err = inference.NewSession(cfg.Model, cfg.Graph, opts)
		if err != nil {
			return fmt.Errorf("serve: durable session: %w", err)
		}
	}
	s.session = sess
	s.sessionResumed = resumed
	if resumed {
		// The resumed graph supersedes the configured one for staging
		// validation and the first pass.
		s.stagedNodes = sess.Graph().NumNodes
	}

	wal, recs, err := checkpoint.OpenWAL(walDir(cfg.SessionDir), cfg.Refresh.CheckpointSync)
	if err != nil {
		sess.CloseDurable()
		return err
	}
	s.wal = wal

	// Re-stage every acknowledged batch the durable resident state does not
	// yet contain. Records at or below the replay mark are covered by the
	// resumed slabs (the crash fell between persist and truncation); they are
	// consumed here so the next truncation clears them.
	start := time.Now()
	mark := sess.ReplayMark()
	// Sequence numbers must stay above every seq the durable state already
	// covers — even when those records are long truncated — or a fresh
	// append could land at-or-below the replay mark and be skipped by the
	// next restart's replay filter.
	s.walSeq = mark
	for _, rec := range recs {
		if rec.Seq > s.walSeq {
			s.walSeq = rec.Seq
		}
		if rec.Seq <= mark {
			continue
		}
		d, derr := decodeDelta(rec.Payload)
		if derr != nil {
			// A record that replayed (CRC-valid) but does not decode was
			// written by an incompatible version; refuse to guess.
			wal.Close()
			sess.CloseDurable()
			return fmt.Errorf("serve: WAL record seq %d: %w", rec.Seq, derr)
		}
		s.staged = append(s.staged, stagedDelta{seq: rec.Seq, d: d})
		s.stagedNodes += len(d.AddNodes)
		s.m.walReplayed.Add(1)
	}
	s.lastReplayNs.Store(time.Since(start).Nanoseconds())
	return nil
}

// sessionSlabDir and walDir lay out SessionDir: epoch files under slabs/,
// the WAL at the top level.
func sessionSlabDir(dir string) string { return filepath.Join(dir, "slabs") }
func walDir(dir string) string         { return dir }

// onSessionPersist runs on the session's persister goroutine after each
// epoch attempt. On success it truncates the WAL prefix the epoch covers —
// the only place WAL records are ever dropped, so truncation strictly
// follows durability of the state that replaces them. Recover-fenced: a
// panic here must degrade (records linger, replay dedups them), never kill
// the persister.
func (s *Server) onSessionPersist(epoch int, mark uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.m.walTruncFailures.Add(1)
		}
	}()
	if err != nil {
		s.m.sessionPersistFailures.Add(1)
		return
	}
	s.m.sessionEpochs.Add(1)
	if s.wal == nil || mark == 0 {
		return
	}
	if s.faults.fire(pregel.FaultWALTruncate) {
		s.m.walTruncSkipped.Add(1)
		return
	}
	if hook := s.cfg.WALTruncateHook; hook != nil {
		hook(mark)
	}
	if terr := s.wal.TruncateThrough(mark); terr != nil {
		s.m.walTruncFailures.Add(1)
	}
}
