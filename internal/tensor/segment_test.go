package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSegmentSumKnown(t *testing.T) {
	data := FromRows([][]float32{{1, 1}, {2, 2}, {3, 3}})
	got := SegmentSum(data, []int32{0, 1, 0}, 2)
	want := FromRows([][]float32{{4, 4}, {2, 2}})
	if !got.Equal(want) {
		t.Fatalf("SegmentSum = %v", got.Data)
	}
}

func TestSegmentSumEmptySegmentIsZero(t *testing.T) {
	data := FromRows([][]float32{{5, 5}})
	got := SegmentSum(data, []int32{2}, 3)
	if got.At(0, 0) != 0 || got.At(1, 0) != 0 || got.At(2, 0) != 5 {
		t.Fatalf("empty segments must be zero: %v", got.Data)
	}
}

func TestSegmentMeanKnown(t *testing.T) {
	data := FromRows([][]float32{{2, 4}, {4, 8}, {9, 9}})
	got := SegmentMean(data, []int32{0, 0, 1}, 2)
	want := FromRows([][]float32{{3, 6}, {9, 9}})
	if !got.Equal(want) {
		t.Fatalf("SegmentMean = %v", got.Data)
	}
}

func TestSegmentMaxMin(t *testing.T) {
	data := FromRows([][]float32{{-1, 5}, {3, -2}, {0, 0}})
	seg := []int32{0, 0, 1}
	mx := SegmentMax(data, seg, 2)
	if mx.At(0, 0) != 3 || mx.At(0, 1) != 5 {
		t.Fatalf("SegmentMax = %v", mx.Data)
	}
	mn := SegmentMin(data, seg, 2)
	if mn.At(0, 0) != -1 || mn.At(0, 1) != -2 {
		t.Fatalf("SegmentMin = %v", mn.Data)
	}
}

func TestSegmentMaxNegativeValuesOnly(t *testing.T) {
	// A segment whose rows are all negative must keep the true max, not 0:
	// the first row seeds the accumulator.
	data := FromRows([][]float32{{-5}, {-3}})
	got := SegmentMax(data, []int32{0, 0}, 1)
	if got.At(0, 0) != -3 {
		t.Fatalf("SegmentMax with negatives = %v, want -3", got.At(0, 0))
	}
}

// csrViews builds a deterministic CSR view set: nSeg segments with skewed
// sizes (segment 0 is a hub), cols-wide rows, views aliasing several
// distinct backing arrays as inbox payloads do.
func csrViews(nSeg, cols, seed int) (off []int32, rows [][]float32) {
	rng := NewRNG(int64(seed))
	off = make([]int32, nSeg+1)
	for s := 0; s < nSeg; s++ {
		n := int(rng.Float32() * 4)
		if s == 0 {
			n = 3 * nSeg // hub segment
		}
		off[s+1] = off[s] + int32(n)
	}
	for i := 0; i < int(off[nSeg]); i++ {
		arena := make([]float32, cols)
		for j := range arena {
			arena[j] = rng.Float32()*8 - 4
		}
		rows = append(rows, arena)
	}
	return off, rows
}

// TestSegmentViewsMatchSerialLoop: the CSR-view kernels must reproduce the
// naive per-destination loop bit for bit at every worker count, including a
// threshold forcing the parallel path.
func TestSegmentViewsMatchSerialLoop(t *testing.T) {
	const nSeg, cols = 37, 9
	off, rows := csrViews(nSeg, cols, 5)
	wantSum := New(nSeg, cols)
	wantMax := New(nSeg, cols)
	wantMin := New(nSeg, cols)
	for s := 0; s < nSeg; s++ {
		for i := off[s]; i < off[s+1]; i++ {
			orow := wantSum.Row(s)
			for j, v := range rows[i] {
				orow[j] += v
			}
		}
		seg := rows[off[s]:off[s+1]]
		if len(seg) == 0 {
			continue
		}
		copy(wantMax.Row(s), seg[0])
		copy(wantMin.Row(s), seg[0])
		for _, r := range seg[1:] {
			for j, v := range r {
				if v > wantMax.At(s, j) {
					wantMax.Set(s, j, v)
				}
				if v < wantMin.At(s, j) {
					wantMin.Set(s, j, v)
				}
			}
		}
	}
	for _, workers := range []int{1, 2, 3, 8, 16} {
		prev := SetTuning(Tuning{Workers: workers, ParallelThreshold: 1})
		gotSum := SegmentSumViewsInto(New(nSeg, cols), off, rows)
		gotMax := New(nSeg, cols)
		gotMax.Fill(-77) // every element must be overwritten
		SegmentExtremeViewsInto(gotMax, off, rows, true)
		gotMin := New(nSeg, cols)
		gotMin.Fill(-77)
		SegmentExtremeViewsInto(gotMin, off, rows, false)
		SetTuning(prev)
		if !gotSum.Equal(wantSum) {
			t.Fatalf("workers=%d: SegmentSumViewsInto diverges from serial loop", workers)
		}
		if !gotMax.Equal(wantMax) {
			t.Fatalf("workers=%d: SegmentExtremeViewsInto(max) diverges", workers)
		}
		if !gotMin.Equal(wantMin) {
			t.Fatalf("workers=%d: SegmentExtremeViewsInto(min) diverges", workers)
		}
	}
}

// TestSegmentSumViewsFoldBits: the four-views-per-sweep fold must give every
// element the one-view loop's bits, for segment lengths 0-9 (every
// remainder mod 4, with and without full sweeps) and for values whose adds
// are order-sensitive: NaN, ±Inf (whose sum is a NaN of its own), -0 (which
// +0 absorbs) and denormals. Matrix.Equal cannot check this — it treats -0
// as +0 and fails on NaN — so rows are compared as raw bits, at one worker
// and at eight with the parallel path forced.
func TestSegmentSumViewsFoldBits(t *testing.T) {
	const cols = 11
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32,
		0x1p-127, 1, -1, 0x1p24, 0.1,
	}
	rng := NewRNG(13)
	off := []int32{0}
	var rows [][]float32
	for rep := 0; rep < 6; rep++ {
		for n := 0; n <= 9; n++ {
			for i := 0; i < n; i++ {
				r := make([]float32, cols)
				for j := range r {
					if rng.Intn(3) == 0 {
						r[j] = specials[rng.Intn(len(specials))]
					} else {
						r[j] = float32(math.Copysign(float64(rng.Float32()*4), float64(rng.Float32()-0.5)))
					}
				}
				rows = append(rows, r)
			}
			off = append(off, int32(len(rows)))
		}
	}
	nSeg := len(off) - 1
	want := New(nSeg, cols)
	for s := 0; s < nSeg; s++ {
		orow := want.Row(s)
		for _, r := range rows[off[s]:off[s+1]] {
			for j, v := range r {
				orow[j] += v
			}
		}
	}
	for _, workers := range []int{1, 8} {
		prev := SetTuning(Tuning{Workers: workers, ParallelThreshold: 1})
		dst := New(nSeg, cols)
		dst.Fill(float32(math.NaN())) // every element must be overwritten
		got := SegmentSumViewsInto(dst, off, rows)
		SetTuning(prev)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("workers=%d: segment %d col %d = %#08x, one-view loop %#08x",
					workers, i/cols, i%cols, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
			}
		}
	}
}

// TestSegmentViewsEdgeCases: empty segment sets, all-empty segments, and a
// single over-heavy segment.
func TestSegmentViewsEdgeCases(t *testing.T) {
	if got := SegmentSumViewsInto(New(0, 4), []int32{0}, nil); got.Rows != 0 {
		t.Fatal("zero-segment sum must be empty")
	}
	// All-empty segments: sum and extreme are zero, even from a dirty dst.
	dst := New(3, 2)
	dst.Fill(9)
	SegmentSumViewsInto(dst, []int32{0, 0, 0, 0}, nil)
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatalf("empty-segment sum = %v", dst.Data)
		}
	}
	dst.Fill(9)
	SegmentExtremeViewsInto(dst, []int32{0, 0, 0, 0}, nil, true)
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatalf("empty-segment max = %v", dst.Data)
		}
	}
	// All-negative single segment keeps its true max (first view seeds).
	got := SegmentExtremeViewsInto(New(1, 1), []int32{0, 2}, [][]float32{{-5}, {-3}}, true)
	if got.At(0, 0) != -3 {
		t.Fatalf("negative-only max = %v, want -3", got.At(0, 0))
	}
}

// TestSegmentViewsMismatchPanics: corrupted offsets or ragged views must
// fail loudly at the kernel boundary.
func TestSegmentViewsMismatchPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("offset length", func() {
		SegmentSumViewsInto(New(2, 1), []int32{0, 1}, [][]float32{{1}})
	})
	expectPanic("offset coverage", func() {
		SegmentSumViewsInto(New(1, 1), []int32{0, 2}, [][]float32{{1}})
	})
	expectPanic("ragged view", func() {
		SegmentSumViewsInto(New(1, 2), []int32{0, 1}, [][]float32{{1}})
	})
}

func TestSegmentCount(t *testing.T) {
	got := SegmentCount([]int32{0, 2, 2, 2}, 3)
	if got[0] != 1 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("SegmentCount = %v", got)
	}
}

func TestSegmentSumPermutationInvariant(t *testing.T) {
	// The paper's rule: aggregate must obey commutative+associative laws, so
	// permuting edge order must not change results beyond float tolerance.
	f := func(seed int64) bool {
		g := NewRNG(seed)
		e := 1 + g.Intn(20)
		n := 1 + g.Intn(5)
		data := New(e, 3)
		g.Uniform(data, -2, 2)
		seg := make([]int32, e)
		for i := range seg {
			seg[i] = int32(g.Intn(n))
		}
		base := SegmentSum(data, seg, n)

		perm := g.Perm(e)
		pd := New(e, 3)
		ps := make([]int32, e)
		for i, p := range perm {
			copy(pd.Row(i), data.Row(p))
			ps[i] = seg[p]
		}
		return SegmentSum(pd, ps, n).AllClose(base, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentMaxPermutationInvariantExactly(t *testing.T) {
	// Max is exactly order-independent (no float rounding), so require Equal.
	f := func(seed int64) bool {
		g := NewRNG(seed)
		e := 1 + g.Intn(20)
		n := 1 + g.Intn(5)
		data := New(e, 2)
		g.Uniform(data, -2, 2)
		seg := make([]int32, e)
		for i := range seg {
			seg[i] = int32(g.Intn(n))
		}
		base := SegmentMax(data, seg, n)
		perm := g.Perm(e)
		pd := New(e, 2)
		ps := make([]int32, e)
		for i, p := range perm {
			copy(pd.Row(i), data.Row(p))
			ps[i] = seg[p]
		}
		return SegmentMax(pd, ps, n).Equal(base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentSumSplitMerge(t *testing.T) {
	// Partial-gather correctness at the tensor level: splitting the edge set
	// arbitrarily, aggregating each part, then aggregating the partials gives
	// the same result as one global aggregate.
	f := func(seed int64) bool {
		g := NewRNG(seed)
		e := 2 + g.Intn(30)
		n := 1 + g.Intn(6)
		data := New(e, 2)
		g.Uniform(data, -2, 2)
		seg := make([]int32, e)
		for i := range seg {
			seg[i] = int32(g.Intn(n))
		}
		full := SegmentSum(data, seg, n)

		cut := 1 + g.Intn(e-1)
		partA := SegmentSum(FromSlice(cut, 2, data.Data[:cut*2]), seg[:cut], n)
		partB := SegmentSum(FromSlice(e-cut, 2, data.Data[cut*2:]), seg[cut:], n)
		merged := Add(partA, partB)
		return merged.AllClose(full, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentSoftmaxSumsToOne(t *testing.T) {
	logits := []float32{1, 2, 3, -1, 0}
	seg := []int32{0, 0, 0, 1, 1}
	probs := SegmentSoftmax(logits, seg, 2)
	var s0, s1 float64
	for i, p := range probs {
		if seg[i] == 0 {
			s0 += float64(p)
		} else {
			s1 += float64(p)
		}
	}
	if math.Abs(s0-1) > 1e-5 || math.Abs(s1-1) > 1e-5 {
		t.Fatalf("segment softmax sums = %v, %v", s0, s1)
	}
	if !(probs[2] > probs[1] && probs[1] > probs[0]) {
		t.Fatal("softmax must be monotone in logits")
	}
}

func TestSegmentSoftmaxStableAtLargeLogits(t *testing.T) {
	probs := SegmentSoftmax([]float32{1000, 1001}, []int32{0, 0}, 1)
	for _, p := range probs {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			t.Fatal("softmax must be numerically stable")
		}
	}
}

func TestSegmentSoftmaxBackwardMatchesNumeric(t *testing.T) {
	logits := []float32{0.5, -0.2, 0.1}
	seg := []int32{0, 0, 0}
	probs := SegmentSoftmax(logits, seg, 1)
	dProbs := []float32{1, 2, 3}
	got := SegmentSoftmaxBackward(probs, dProbs, seg, 1)

	const eps = 1e-3
	for i := range logits {
		plus := append([]float32(nil), logits...)
		minus := append([]float32(nil), logits...)
		plus[i] += eps
		minus[i] -= eps
		pp := SegmentSoftmax(plus, seg, 1)
		pm := SegmentSoftmax(minus, seg, 1)
		var num float64
		for j := range pp {
			num += float64(dProbs[j]) * float64(pp[j]-pm[j]) / (2 * eps)
		}
		if math.Abs(num-float64(got[i])) > 1e-2 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, got[i], num)
		}
	}
}

func TestSegmentSumBackwardShape(t *testing.T) {
	dOut := FromRows([][]float32{{1, 2}, {3, 4}})
	got := SegmentSumBackward(dOut, []int32{1, 1, 0})
	want := FromRows([][]float32{{3, 4}, {3, 4}, {1, 2}})
	if !got.Equal(want) {
		t.Fatalf("SegmentSumBackward = %v", got.Data)
	}
}

func TestSegmentMeanBackwardDividesByCount(t *testing.T) {
	dOut := FromRows([][]float32{{6, 6}})
	counts := []int32{3}
	got := SegmentMeanBackward(dOut, []int32{0, 0, 0}, counts)
	for r := 0; r < 3; r++ {
		if got.At(r, 0) != 2 {
			t.Fatalf("row %d = %v, want 2", r, got.Row(r))
		}
	}
}

func TestSegmentMeanGradientNumeric(t *testing.T) {
	// d/dx of mean-aggregate matches finite differences.
	data := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	seg := []int32{0, 0, 1}
	counts := SegmentCount(seg, 2)
	dOut := FromRows([][]float32{{1, 1}, {1, 1}})
	grad := SegmentMeanBackward(dOut, seg, counts)

	const eps = 1e-2
	for r := 0; r < data.Rows; r++ {
		for c := 0; c < data.Cols; c++ {
			orig := data.At(r, c)
			data.Set(r, c, orig+eps)
			plus := SegmentMean(data, seg, 2)
			data.Set(r, c, orig-eps)
			minus := SegmentMean(data, seg, 2)
			data.Set(r, c, orig)
			var num float64
			for i := range plus.Data {
				num += float64(plus.Data[i]-minus.Data[i]) / (2 * eps)
			}
			if math.Abs(num-float64(grad.At(r, c))) > 1e-2 {
				t.Fatalf("numeric grad mismatch at (%d,%d): %v vs %v", r, c, num, grad.At(r, c))
			}
		}
	}
}

func TestSegmentOpsPanicOnBadIDs(t *testing.T) {
	for name, f := range map[string]func(){
		"sum":     func() { SegmentSum(New(1, 1), []int32{5}, 2) },
		"mean":    func() { SegmentMean(New(1, 1), []int32{-1}, 2) },
		"max":     func() { SegmentMax(New(1, 1), []int32{2}, 2) },
		"min":     func() { SegmentMin(New(1, 1), []int32{9}, 2) },
		"softmax": func() { SegmentSoftmax([]float32{1}, []int32{3}, 2) },
		"count":   func() { SegmentCount([]int32{4}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic for out-of-range segment id", name)
				}
			}()
			f()
		}()
	}
}
