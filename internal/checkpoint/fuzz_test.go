package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointReader drives both layers of the durable-epoch parser with
// arbitrary bytes: the epoch-file decode (magic, segment CRCs, footer) and
// the primitive Reader walk beneath it. The contract is the crash-safety
// story's foundation — any byte stream, including a torn or bit-flipped
// epoch, yields a clean error and bounded allocations, never a panic.
// FuzzWALReplay feeds the mutation-log parser arbitrary bytes. Same contract
// as the epoch parser: a torn or hostile log yields a clean truncation point
// or an error, never a panic, and no allocation exceeds the input size (the
// frame-length bound is checked before the payload copy).
func FuzzWALReplay(f *testing.F) {
	// Seed with a real three-record log so the fuzzer mutates valid frames.
	dir := f.TempDir()
	w, _, err := OpenWAL(dir, SyncNever)
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		payload := AppendString(AppendU64(nil, uint64(i*7)), "delta")
		if err := w.Append(uint64(i), payload); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	seed, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte(walMagic))
	f.Add(seed[:len(seed)-5]) // torn tail
	f.Add(append(append([]byte(nil), seed...), 0xff, 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		recs, valid, err := ReplayWAL(data)
		if err != nil {
			if len(recs) != 0 || valid != 0 {
				t.Fatalf("error path leaked results: %d records, valid=%d", len(recs), valid)
			}
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside input of %d bytes", valid, len(data))
		}
		total := 0
		for i, r := range recs {
			total += len(r.Payload)
			if total > len(data) {
				t.Fatalf("record %d pushed materialized payloads to %d bytes from %d input bytes", i, total, len(data))
			}
		}
		// The valid prefix must itself replay identically — replay is a
		// fixed point, which is what makes Open's torn-tail truncation safe.
		recs2, valid2, err2 := ReplayWAL(data[:valid])
		if err2 != nil && len(data) > 0 {
			t.Fatalf("replay of valid prefix errored: %v", err2)
		}
		if valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("replay not idempotent: %d/%d records, %d/%d bytes", len(recs2), len(recs), valid2, valid)
		}
	})
}

func FuzzCheckpointReader(f *testing.F) {
	// Seed with a real epoch file so the fuzzer mutates from valid input.
	dir := f.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	st.Sync = SyncNever
	segs := []Segment{
		{Name: "meta", Data: AppendI64s(nil, []int64{4, 70, 900, 900})},
		{Name: "values", Data: AppendF32s(nil, []float32{1.5, -2.25, 0, 3e7})},
		{Name: "active", Data: AppendBools(nil, []bool{true, false, true})},
		{Name: "empty", Data: nil},
	}
	if err := st.Save(3, segs); err != nil {
		f.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "epoch-*.ckpt"))
	if err != nil || len(names) == 0 {
		f.Fatalf("no seed epoch written: %v", err)
	}
	seed, err := os.ReadFile(names[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:len(seed)-3]) // torn tail
	f.Add(AppendI32s(AppendU64(AppendString(nil, "segment"), 42), []int32{1, 2, 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		// Layer 1: the epoch-file parser. Success means every segment's CRC
		// held, so segment data must round-trip through the Reader cleanly.
		if _, segs, err := decode(bytes.NewReader(data), int64(len(data)), nil); err == nil {
			for _, sg := range segs {
				r := NewReader(sg.Data)
				_ = r.I64s()
				_ = r.F32s()
				_ = r.Err()
			}
			// Reading every segment as floats accepts the same file and
			// yields the same bytes.
			_, f32, err := decode(bytes.NewReader(data), int64(len(data)), func(string) bool { return true })
			if err != nil || !segsEqual(segs, f32) {
				t.Fatalf("float read of a valid file: err=%v", err)
			}
		}

		// Layer 2: a deterministic Reader walk over the raw bytes. Errors
		// must be sticky and every returned slice bounded by the input —
		// the length-prefix cap is what keeps a hostile 4GB claim from
		// becoming a 4GB allocation.
		r := NewReader(data)
		_ = r.U32()
		_ = r.U64()
		_ = r.I64()
		checkLen := func(n int) {
			if n > len(data) {
				t.Fatalf("reader materialized %d elements from %d input bytes", n, len(data))
			}
		}
		checkLen(len(r.Bytes()))
		checkLen(len(r.String()))
		checkLen(len(r.Bools()))
		checkLen(len(r.I32s()))
		checkLen(len(r.I64s()))
		checkLen(len(r.F32s()))
		if r.Err() != nil {
			// Sticky error: every subsequent read must be a zero-value
			// no-op, not a fresh attempt at the buffer.
			if got := r.U32(); got != 0 {
				t.Fatalf("read after error returned %d, want 0", got)
			}
			if b := r.Bytes(); b != nil {
				t.Fatalf("read after error returned %d bytes, want nil", len(b))
			}
		}
	})
}
