package pregel

// Deterministic fault injection. The chaos tests drive the engine through
// crashes at every interesting point of a superstep's lifecycle and assert
// bit-identical results against a failure-free run; FaultPlan is the
// schedule they author. Injection is deterministic by construction: a fault
// fires on the single engine goroutine at a fixed phase boundary of a fixed
// superstep, never from a signal or timer, so a plan replays identically on
// every run.

// FaultPoint identifies where within a superstep's lifecycle an injected
// crash fires. All points sit at single-goroutine phase boundaries — worker
// goroutines (compute, delivery) are always joined when a fault fires, which is what keeps injected runs deterministic.
type FaultPoint int

const (
	// FaultBeforeSuperstep crashes before the superstep's compute begins.
	// Nothing of the superstep executed; recovery replays from the latest
	// checkpoint.
	FaultBeforeSuperstep FaultPoint = iota
	// FaultMidPipeline crashes after the compute phase has produced its send
	// data but before the barrier delivers any of it: the filled send
	// buffers are lost work that recovery must discard.
	FaultMidPipeline
	// FaultAtBarrier crashes after the barrier's delivery/merge has rebuilt
	// the inboxes but before the superstep commits (totals, aggregators, the
	// send-buffer generation shift) — the freshly delivered inbox is lost.
	FaultAtBarrier
	// FaultDuringCheckpoint crashes while the checkpoint following the given
	// superstep is being captured: the partially built snapshot is discarded
	// and the previous checkpoint must remain the recovery point. (Torn
	// epoch files on disk are the Store's own test surface — see
	// internal/checkpoint.)
	FaultDuringCheckpoint

	// The remaining points target the serving layer's durable-session
	// machinery rather than the engine's superstep lifecycle; the engine
	// never fires them. For these, Fault.Superstep is reinterpreted as the
	// zero-based occurrence index of the event (the Nth WAL append, the Nth
	// epoch persist, ...), keeping injection deterministic.

	// FaultWALAppend fails the Nth mutation's write-ahead-log append: the
	// serving layer refuses that mutation with a 500 before anything is
	// staged or acknowledged, so nothing acknowledged can be lost.
	FaultWALAppend
	// FaultWALTruncate skips the WAL head-truncation that would follow the
	// Nth durable session epoch: consumed records linger in the log, and
	// restart-time replay must dedup them against the epoch's replay mark.
	FaultWALTruncate
	// FaultSlabPersist aborts the Nth resident-slab epoch persist before its
	// write begins: the session keeps serving from memory, nothing durable
	// changes, and the WAL keeps every record the failed epoch would have
	// covered.
	FaultSlabPersist
)

// String names a FaultPoint for logs and test output.
func (p FaultPoint) String() string {
	switch p {
	case FaultBeforeSuperstep:
		return "before-superstep"
	case FaultMidPipeline:
		return "mid-pipeline"
	case FaultAtBarrier:
		return "at-barrier"
	case FaultDuringCheckpoint:
		return "during-checkpoint"
	case FaultWALAppend:
		return "wal-append"
	case FaultWALTruncate:
		return "wal-truncate"
	case FaultSlabPersist:
		return "slab-persist"
	}
	return "unknown"
}

// Fault is one injected crash: it fires the first time the run reaches
// Point at Superstep, then disarms (a replayed superstep does not re-crash,
// matching a real transient failure). Superstep 0 is targetable.
type Fault struct {
	Superstep int
	Point     FaultPoint
}

// FaultPlan is a deterministic schedule of injected crashes for one run.
// Multiple faults may target the same superstep (even the same point via
// duplicate entries); each entry fires exactly once, in the order the run
// reaches them.
type FaultPlan struct {
	Crashes []Fault
}

// faultState tracks one planned fault's armed/fired status.
type faultState struct {
	Fault
	fired bool
}

// buildFaults arms the configured FaultPlan.
func buildFaults(plan *FaultPlan) []faultState {
	if plan == nil {
		return nil
	}
	fs := make([]faultState, len(plan.Crashes))
	for i, f := range plan.Crashes {
		fs[i] = faultState{Fault: f}
	}
	return fs
}

// faultAt reports whether an armed fault targets (step, p), consuming it.
func (e *Engine[V, M]) faultAt(step int, p FaultPoint) bool {
	for i := range e.faults {
		f := &e.faults[i]
		if !f.fired && f.Superstep == step && f.Point == p {
			f.fired = true
			return true
		}
	}
	return false
}
