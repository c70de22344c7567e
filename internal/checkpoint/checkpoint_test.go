package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testSegs(tag byte) []Segment {
	return []Segment{
		{Name: "meta", Data: []byte{tag, 1, 2, 3}},
		{Name: "values", Data: AppendF32s(nil, []float32{1.5, -2.25, float32(tag)})},
		{Name: "empty", Data: nil},
	}
}

func segsEqual(a, b []Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || string(a[i].Data) != string(b[i].Data) {
			return false
		}
	}
	return true
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testSegs(7)
	if err := s.Save(42, want); err != nil {
		t.Fatal(err)
	}
	step, got, found, err := s.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	if step != 42 || !segsEqual(want, got) {
		t.Fatalf("round trip mismatch: step=%d", step)
	}
	if s.BytesWritten() == 0 {
		t.Fatal("BytesWritten not recorded")
	}
}

func TestLoadEmptyDir(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, _, found, err := s.Load()
	if err != nil || found {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}
}

func TestLatestEpochWins(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	for i := 0; i < 3; i++ {
		if err := s.Save(i*4, testSegs(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	step, segs, found, _ := s.Load()
	if !found || step != 8 || segs[0].Data[0] != 2 {
		t.Fatalf("latest epoch not returned: step=%d", step)
	}
}

// corruptLatest flips a byte in the middle of the newest epoch file.
func corruptLatest(t *testing.T, s *Store) string {
	t.Helper()
	epochs, err := s.listEpochs()
	if err != nil || len(epochs) == 0 {
		t.Fatalf("no epochs to corrupt: %v", err)
	}
	path := epochPath(s.dir, epochs[len(epochs)-1])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCorruptFallsBackToPreviousEpoch(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	if err := s.Save(4, testSegs(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(8, testSegs(2)); err != nil {
		t.Fatal(err)
	}
	corruptLatest(t, s)
	step, segs, found, err := s.Load()
	if err != nil || !found {
		t.Fatalf("Load after corruption: found=%v err=%v", found, err)
	}
	if step != 4 || segs[0].Data[0] != 1 {
		t.Fatalf("fallback returned wrong epoch: step=%d", step)
	}
}

func TestTornTailFallsBack(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	s.Save(4, testSegs(1))
	s.Save(8, testSegs(2))
	epochs, _ := s.listEpochs()
	path := epochPath(s.dir, epochs[len(epochs)-1])
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-len(footerMagic)-2], 0o644) // lose the tail
	step, _, found, err := s.Load()
	if err != nil || !found || step != 4 {
		t.Fatalf("torn tail: step=%d found=%v err=%v", step, found, err)
	}
}

func TestAllEpochsCorruptReportsNothing(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	s.Save(4, testSegs(1))
	corruptLatest(t, s)
	_, _, found, err := s.Load()
	if err != nil || found {
		t.Fatalf("all-corrupt: found=%v err=%v", found, err)
	}
}

func TestStaleManifestFallsBackToScan(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	s.Save(4, testSegs(1))
	// Manifest names a file that no longer exists (e.g. crash between epoch
	// write and manifest update on a later process): scan must recover.
	os.WriteFile(filepath.Join(s.dir, manifest), []byte("epoch-99999999.ckpt\n"), 0o644)
	step, _, found, err := s.Load()
	if err != nil || !found || step != 4 {
		t.Fatalf("stale manifest: step=%d found=%v err=%v", step, found, err)
	}
}

func TestTmpFilesIgnored(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	s.Save(4, testSegs(1))
	// A crash mid-write leaves a .tmp the loader must never consider.
	os.WriteFile(epochPath(s.dir, 9)+".tmp", []byte("garbage"), 0o644)
	step, _, found, err := s.Load()
	if err != nil || !found || step != 4 {
		t.Fatalf("tmp file considered: step=%d found=%v err=%v", step, found, err)
	}
}

func TestRetryRecoversFromTransientErrors(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	var slept []time.Duration
	s.sleep = func(d time.Duration) { slept = append(slept, d) }
	fails := 2
	s.writeHook = func(attempt int) error {
		if attempt < fails {
			return errors.New("injected io error")
		}
		return nil
	}
	if err := s.Save(4, testSegs(1)); err != nil {
		t.Fatalf("save with transient errors: %v", err)
	}
	if len(slept) != 2 {
		t.Fatalf("expected 2 backoff sleeps, got %d", len(slept))
	}
	if slept[1] != 2*slept[0] {
		t.Fatalf("backoff not doubling: %v", slept)
	}
	if _, _, found, _ := s.Load(); !found {
		t.Fatal("epoch not recoverable after retried save")
	}
}

func TestRetryExhaustionSurfacesError(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	s.sleep = func(time.Duration) {}
	s.writeHook = func(int) error { return errors.New("disk on fire") }
	if err := s.Save(4, testSegs(1)); err == nil {
		t.Fatal("expected error after exhausting retries")
	}
}

func TestPruneKeepsTwoEpochs(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	for i := 0; i < 5; i++ {
		s.Save(i, testSegs(byte(i)))
	}
	epochs, _ := s.listEpochs()
	if len(epochs) != 2 {
		t.Fatalf("expected 2 retained epochs, got %v", epochs)
	}
}

func TestEpochNumberingContinuesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, _ := NewStore(dir)
	s1.Save(4, testSegs(1))
	s2, err := NewStore(dir) // a resumed process
	if err != nil {
		t.Fatal(err)
	}
	s2.Save(8, testSegs(2))
	step, _, found, _ := s2.Load()
	if !found || step != 8 {
		t.Fatalf("resumed store did not supersede: step=%d", step)
	}
	epochs, _ := s2.listEpochs()
	if len(epochs) != 2 || epochs[0] != 0 || epochs[1] != 1 {
		t.Fatalf("epoch numbering broken across restart: %v", epochs)
	}
}

func TestWireRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU32(b, 0xdeadbeef)
	b = AppendI64(b, -42)
	b = AppendString(b, "seg")
	b = AppendBools(b, []bool{true, false, true})
	b = AppendI32s(b, []int32{-1, 0, 7})
	b = AppendI64s(b, []int64{1 << 40, -9})
	b = AppendF32s(b, []float32{3.5, -0.125})
	r := NewReader(b)
	if r.U32() != 0xdeadbeef || r.I64() != -42 || r.String() != "seg" {
		t.Fatal("scalar round trip failed")
	}
	bs := r.Bools()
	if len(bs) != 3 || !bs[0] || bs[1] || !bs[2] {
		t.Fatal("bools round trip failed")
	}
	i32 := r.I32s()
	if len(i32) != 3 || i32[0] != -1 || i32[2] != 7 {
		t.Fatal("i32s round trip failed")
	}
	i64 := r.I64s()
	if len(i64) != 2 || i64[0] != 1<<40 || i64[1] != -9 {
		t.Fatal("i64s round trip failed")
	}
	f32 := r.F32s()
	if len(f32) != 2 || f32[0] != 3.5 || f32[1] != -0.125 {
		t.Fatal("f32s round trip failed")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("reader state: err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

// TestSliceAppendersWriteFixedBytes pins the slice helpers' output to the
// element-by-element layout (u64 count, then little-endian elements), so
// growing the buffer once per call cannot change a WAL record or segment
// byte; and a buffer with room is never reallocated.
func TestSliceAppendersWriteFixedBytes(t *testing.T) {
	prefix := []byte{0xaa}
	want := append([]byte(nil), prefix...)
	want = AppendU64(want, 3)
	for _, v := range []float32{1.5, float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc00123)} {
		want = AppendU32(want, math.Float32bits(v))
	}
	want = AppendU64(want, 2)
	want = AppendU32(want, uint32(0xfffffffe))
	want = AppendU32(want, 9)
	want = AppendU64(want, 1)
	want = AppendU64(want, uint64(1<<40))
	want = AppendU64(want, 2)
	want = append(want, 1, 0)

	buf := make([]byte, 0, len(want))
	got := append(buf, prefix...)
	got = AppendF32s(got, []float32{1.5, float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc00123)})
	got = AppendI32s(got, []int32{-2, 9})
	got = AppendI64s(got, []int64{1 << 40})
	got = AppendBools(got, []bool{true, false})
	if !bytes.Equal(got, want) {
		t.Fatalf("slice helpers wrote\n%x\nwant\n%x", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("helpers reallocated a buffer that had room")
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	if r.U64() != 0 || r.Err() == nil {
		t.Fatal("short read did not poison reader")
	}
	if r.I32s() != nil || r.U32() != 0 {
		t.Fatal("poisoned reader kept reading")
	}
	// A corrupt length prefix must not drive a huge allocation.
	huge := AppendU64(nil, 1<<60)
	r2 := NewReader(huge)
	if r2.F32s() != nil || r2.Err() == nil {
		t.Fatal("oversized length accepted")
	}
}

// TestSyncNeverRoundTrip: the no-fsync mode keeps the whole protocol —
// atomic rename, CRCs, manifest, pruning — and round-trips identically;
// only the fsync calls are elided.
func TestSyncNeverRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Sync = SyncNever
	for tag := byte(1); tag <= 3; tag++ {
		if err := s.Save(int(tag), testSegs(tag)); err != nil {
			t.Fatal(err)
		}
	}
	step, got, found, err := s.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	if step != 3 || !segsEqual(testSegs(3), got) {
		t.Fatalf("round trip mismatch: step=%d", step)
	}
	// The only tmp file allowed is the shared recycled scratch (pruned
	// epochs become the next write's page-recycled buffer); any other tmp
	// name means the atomic-write protocol leaked.
	names, _ := filepath.Glob(filepath.Join(s.Dir(), "*.tmp"))
	for _, n := range names {
		if filepath.Base(n) != epochTmp {
			t.Fatalf("unexpected tmp file: %v", n)
		}
	}
}

// TestPruneRecyclesTmp: pruning renames the retired epoch onto the shared
// tmp name (so its pages are overwritten in place by the next epoch) and the
// recycled file is never loadable.
func TestPruneRecyclesTmp(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	for tag := byte(1); tag <= 3; tag++ {
		if err := s.Save(int(tag), testSegs(tag)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), epochTmp)); err != nil {
		t.Fatalf("pruned epoch not recycled as %s: %v", epochTmp, err)
	}
	if names, _ := filepath.Glob(filepath.Join(s.Dir(), "epoch-*.ckpt")); len(names) != defaultKeep {
		t.Fatalf("retained epochs = %v, want %d", names, defaultKeep)
	}
	// A fourth save must overwrite the recycled file and stay readable.
	if err := s.Save(4, testSegs(4)); err != nil {
		t.Fatal(err)
	}
	step, got, found, err := s.Load()
	if err != nil || !found || step != 4 || !segsEqual(testSegs(4), got) {
		t.Fatalf("round trip after recycle: step=%d found=%v err=%v", step, found, err)
	}
}

// TestF32CodecPathsBitExact: the host's float path (one memmove on
// little-endian hosts) and the forced per-element path write the same wire
// bytes and read back every float bit for bit — quiet and signaling NaNs
// with payloads, both zeros, both infinities, denormals.
func TestF32CodecPathsBitExact(t *testing.T) {
	bits := []uint32{
		0x7fc00000, 0x7fc00123, 0xffc0beef, 0x7f800001, 0xffa00001, // NaNs
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, 0x807fffff, 0x00400000, // denormals
		0x3fc00000, 0xc0490fdb, 0x7f7fffff, // ordinary values
	}
	v := make([]float32, len(bits))
	var raw []byte
	for i, b := range bits {
		v[i] = math.Float32frombits(b)
		raw = AppendU32(raw, b)
	}
	want := append(AppendU64(nil, uint64(len(v))), raw...)

	host := bulkF32
	defer func() { bulkF32 = host }()
	for _, bulk := range []bool{host, false} {
		bulkF32 = bulk
		same := func(label string, got []float32) {
			t.Helper()
			if len(got) != len(bits) {
				t.Fatalf("bulk=%v %s: %d floats, want %d", bulk, label, len(got), len(bits))
			}
			for i, x := range got {
				if math.Float32bits(x) != bits[i] {
					t.Fatalf("bulk=%v %s: float %d is %#08x, want %#08x", bulk, label, i, math.Float32bits(x), bits[i])
				}
			}
		}
		if got := AppendF32s(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("bulk=%v AppendF32s wrote\n%x\nwant\n%x", bulk, got, want)
		}
		same("Reader.F32s", NewReader(want).F32s())
		if got := F32Bytes(nil, v); !bytes.Equal(got, raw) {
			t.Fatalf("bulk=%v F32Bytes wrote\n%x\nwant\n%x", bulk, got, raw)
		}
		dst := make([]float32, len(v))
		DecodeF32s(dst, raw)
		same("DecodeF32s", dst)
	}
}

// TestLinksLiveAndDieWithTheirBase: links are invisible to Load, read back
// by index until the first missing one, and pruned together with their base.
func TestLinksLiveAndDieWithTheirBase(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(10, testSegs(1)); err != nil {
		t.Fatal(err)
	}
	base := s.LastEpoch()
	for idx := 1; idx <= 2; idx++ {
		if err := s.SaveLink(base, idx, 10+idx, testSegs(byte(idx+1))); err != nil {
			t.Fatal(err)
		}
	}
	epoch, step, segs, found, err := s.LoadEpoch()
	if err != nil || !found || epoch != base || step != 10 || !segsEqual(segs, testSegs(1)) {
		t.Fatalf("LoadEpoch: epoch=%d step=%d found=%v err=%v", epoch, step, found, err)
	}
	for idx := 1; idx <= 2; idx++ {
		step, segs, err := s.LoadLink(base, idx)
		if err != nil || step != 10+idx || !segsEqual(segs, testSegs(byte(idx+1))) {
			t.Fatalf("link %d: step=%d err=%v", idx, step, err)
		}
	}
	if _, _, err := s.LoadLink(base, 3); err == nil {
		t.Fatal("a link that was never written loaded")
	}
	// Two newer bases retire the first, and its links with it.
	for i := 0; i < 2; i++ {
		if err := s.Save(20+i, testSegs(9)); err != nil {
			t.Fatal(err)
		}
	}
	if links, _ := filepath.Glob(filepath.Join(s.Dir(), "link-*")); len(links) != 0 {
		t.Fatalf("links outlived their base: %v", links)
	}
}
