package inference

import (
	"errors"
	"fmt"
	"slices"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/tensor"
)

// Durable checkpoint codec for the GNN driver: the byte form of its progSnap
// inside an epoch file. Floats round-trip through their IEEE-754 bit
// patterns (checkpoint.AppendF32s), so a resumed run recomputes from exactly
// the slabs the killed run held — the foundation of the crash-resume
// bit-identity guarantee.

// gnnCodec implements pregel.SnapshotCodec[vtxValue, gnnMsg]. The driver
// keeps no per-vertex values and sends no boxed messages, so its values
// segment is empty and the engine, which encodes messages only on its boxed
// plane, never calls the message methods. A values segment written by an
// older build is skipped: DecodeProgState refuses that epoch by version.
type gnnCodec struct{}

var errBoxedMsgs = errors.New("inference: the GNN driver sends no boxed messages")

func (gnnCodec) EncodeValues(dst []byte, _ []vtxValue) ([]byte, error) { return dst, nil }

func (gnnCodec) DecodeValues([]byte, []vtxValue) error { return nil }

func (gnnCodec) EncodeMsgs([]byte, []gnnMsg) ([]byte, error) { return nil, errBoxedMsgs }

func (gnnCodec) DecodeMsgs([]byte) ([]gnnMsg, error) { return nil, errBoxedMsgs }

// progStateVersion numbers EncodeProgState's layout: a version word, then
// each worker's state, emit and embedding slabs. The two layouts before it
// carried no version and opened with the worker count (states and embs per
// worker; then states, emits and embs). The version word carries
// progStateTag in its high half, which no worker count reaches, so
// DecodeProgState reads any older layout as version 0 and refuses it.
const (
	progStateVersion = 1
	progStateTag     = 0x504e4e47 // "GNNP"
)

// appendMatrix serializes one optional slab: a presence flag, then shape and
// bit-exact float data. It grows b at most once, so a buffer reused from an
// earlier same-shape slab is never reallocated.
func appendMatrix(b []byte, m *tensor.Matrix) []byte {
	if m == nil {
		return checkpoint.AppendBools(b, []bool{false})
	}
	b = slices.Grow(b, 9+3*8+4*len(m.Data))
	b = checkpoint.AppendBools(b, []bool{true})
	b = checkpoint.AppendU64(b, uint64(m.Rows))
	b = checkpoint.AppendU64(b, uint64(m.Cols))
	return checkpoint.AppendF32s(b, m.Data)
}

func readMatrix(r *checkpoint.Reader) *tensor.Matrix {
	present := r.Bools()
	if len(present) != 1 || !present[0] {
		return nil
	}
	rows := int(r.U64())
	cols := int(r.U64())
	data := r.F32s()
	if r.Err() != nil || rows*cols != len(data) {
		return nil
	}
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: data}
}

// EncodeProgState implements pregel.ProgramDiskStater for the driver's
// per-worker slabs (the progSnap a checkpoint carries).
func (d *pregelDriver) EncodeProgState(dst []byte, snap any) ([]byte, error) {
	s, ok := snap.(*progSnap)
	if !ok {
		return nil, fmt.Errorf("inference: unexpected program snapshot type %T", snap)
	}
	b := checkpoint.AppendU64(dst, progStateTag<<32|progStateVersion)
	b = checkpoint.AppendU64(b, uint64(len(s.states)))
	for w := range s.states {
		b = appendMatrix(b, s.states[w])
		b = appendMatrix(b, s.emits[w])
		b = appendMatrix(b, s.embs[w])
	}
	return b, nil
}

// DecodeProgState implements pregel.ProgramDiskStater. An epoch of any other
// layout version is an error naming both versions, never a misread slab.
func (d *pregelDriver) DecodeProgState(data []byte) (any, error) {
	r := checkpoint.NewReader(data)
	word := r.U64()
	v := uint64(0)
	if word>>32 == progStateTag {
		v = word & (1<<32 - 1)
	}
	if v != progStateVersion {
		return nil, fmt.Errorf("inference: checkpoint program state version %d, want %d (written by another build; delete the checkpoint dir)", v, progStateVersion)
	}
	nw := int(r.U64())
	if nw != d.opts.NumWorkers {
		return nil, fmt.Errorf("inference: checkpoint program state has %d workers, run has %d", nw, d.opts.NumWorkers)
	}
	s := &progSnap{
		states: make([]*tensor.Matrix, nw),
		emits:  make([]*tensor.Matrix, nw),
		embs:   make([]*tensor.Matrix, nw),
	}
	for w := 0; w < nw; w++ {
		s.states[w] = readMatrix(r)
		s.emits[w] = readMatrix(r)
		s.embs[w] = readMatrix(r)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
