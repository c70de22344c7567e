package tensor

import (
	"fmt"
	"math"
)

// Segment operations reduce edge-level rows into node-level rows keyed by a
// destination index. They are the tensor form of the paper's "aggregate"
// stage: every reduction here is commutative and associative (sum, mean, max,
// min), which is exactly the property the partial-gather strategy relies on.
//
// The parallel variants follow the package determinism model: work is split
// over contiguous ranges of *segments* via a precomputed CSR row-range
// partition (segmentIndex), each segment is reduced serially by its owner in
// ascending input-row order — the same order the serial loop visits — so
// every worker count produces bit-identical output.

// segmentIndex is a CSR partition of input rows by segment: rows of segment
// s are order[starts[s]:starts[s+1]], in ascending row order (the counting
// sort is stable), which is exactly the per-segment accumulation order of
// the serial kernels.
type segmentIndex struct {
	starts []int32 // len nSeg+1
	order  []int32 // input row ids grouped by segment
}

func buildSegmentIndex(seg []int32, nSeg int) *segmentIndex {
	counts := SegmentCount(seg, nSeg)
	starts := make([]int32, nSeg+1)
	for s, c := range counts {
		starts[s+1] = starts[s] + c
	}
	next := counts // reuse: rewound to starts as the write cursor
	copy(next, starts[:nSeg])
	order := make([]int32, len(seg))
	for r, s := range seg {
		order[next[s]] = int32(r)
		next[s]++
	}
	return &segmentIndex{starts: starts, order: order}
}

// segmentWorthParallel reports whether a segment reduction over rows x cols
// clears the tuning bar for the indexed parallel path (building the index
// costs O(rows), only worth it when the reduction dominates).
func segmentWorthParallel(rows, cols int) bool {
	t := tuning.Load()
	return t.Workers > 1 && rows*cols >= t.ParallelThreshold
}

// SegmentSum sums rows of data sharing the same segment id. seg[r] is the
// output row that data row r accumulates into; nSeg is the output row count.
func SegmentSum(data *Matrix, seg []int32, nSeg int) *Matrix {
	return segmentSumInto(New(nSeg, data.Cols), data, seg) // New is already zeroed
}

// SegmentSumInto computes SegmentSum into dst (nSeg x data.Cols),
// overwriting it, and returns dst.
func SegmentSumInto(dst, data *Matrix, seg []int32) *Matrix {
	dst.Zero()
	return segmentSumInto(dst, data, seg)
}

// segmentSumInto accumulates the segment sums into dst, which must be
// zeroed.
func segmentSumInto(dst, data *Matrix, seg []int32) *Matrix {
	nSeg := dst.Rows
	checkSegments("SegmentSum", data, seg, nSeg)
	if dst.Cols != data.Cols {
		panic(fmt.Sprintf("tensor: SegmentSumInto cols %d != %d", dst.Cols, data.Cols))
	}
	if !segmentWorthParallel(data.Rows, data.Cols) {
		for r, s := range seg {
			orow := dst.Row(int(s))
			drow := data.Row(r)
			for j, v := range drow {
				orow[j] += v
			}
		}
		return dst
	}
	idx := buildSegmentIndex(seg, nSeg)
	parallelWeightedBlocks(nSeg, data.Rows*data.Cols, idx.starts, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			orow := dst.Row(s)
			for _, r := range idx.order[idx.starts[s]:idx.starts[s+1]] {
				drow := data.Row(int(r))
				for j, v := range drow {
					orow[j] += v
				}
			}
		}
	})
	return dst
}

// SegmentCount returns how many rows map to each segment.
func SegmentCount(seg []int32, nSeg int) []int32 {
	out := make([]int32, nSeg)
	for _, s := range seg {
		if int(s) < 0 || int(s) >= nSeg {
			panic(fmt.Sprintf("tensor: SegmentCount id %d out of %d", s, nSeg))
		}
		out[s]++
	}
	return out
}

// SegmentMean averages rows per segment. Empty segments produce zero rows.
func SegmentMean(data *Matrix, seg []int32, nSeg int) *Matrix {
	out := SegmentSum(data, seg, nSeg)
	counts := SegmentCount(seg, nSeg)
	parallelRowBlocks(nSeg, nSeg*data.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if counts[i] == 0 {
				continue
			}
			inv := 1 / float32(counts[i])
			row := out.Row(i)
			for j := range row {
				row[j] *= inv
			}
		}
	})
	return out
}

// SegmentMax takes the elementwise max per segment. Empty segments produce
// zero rows (not -inf) so downstream layers see neutral input for isolated
// nodes, matching the behaviour of the reference GNN implementations.
func SegmentMax(data *Matrix, seg []int32, nSeg int) *Matrix {
	return segmentExtreme("SegmentMax", data, seg, nSeg, true)
}

// SegmentMin takes the elementwise min per segment; empty segments are zero.
func SegmentMin(data *Matrix, seg []int32, nSeg int) *Matrix {
	return segmentExtreme("SegmentMin", data, seg, nSeg, false)
}

// segmentExtreme is the shared max/min kernel: the segment's first row (in
// input order) seeds the accumulator, later rows replace elements that
// compare better. The parallel path visits each segment's rows in the same
// input order as the serial loop, so results are bit-identical (relevant
// for NaN propagation, where comparison order is observable).
func segmentExtreme(op string, data *Matrix, seg []int32, nSeg int, isMax bool) *Matrix {
	checkSegments(op, data, seg, nSeg)
	out := New(nSeg, data.Cols)
	fold := func(orow, drow []float32) {
		if isMax {
			for j, v := range drow {
				if v > orow[j] {
					orow[j] = v
				}
			}
		} else {
			for j, v := range drow {
				if v < orow[j] {
					orow[j] = v
				}
			}
		}
	}
	if !segmentWorthParallel(data.Rows, data.Cols) {
		seen := make([]bool, nSeg)
		for r, s := range seg {
			drow := data.Row(r)
			if !seen[s] {
				copy(out.Row(int(s)), drow)
				seen[s] = true
				continue
			}
			fold(out.Row(int(s)), drow)
		}
		return out
	}
	idx := buildSegmentIndex(seg, nSeg)
	parallelWeightedBlocks(nSeg, data.Rows*data.Cols, idx.starts, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			rows := idx.order[idx.starts[s]:idx.starts[s+1]]
			if len(rows) == 0 {
				continue
			}
			orow := out.Row(s)
			copy(orow, data.Row(int(rows[0])))
			for _, r := range rows[1:] {
				fold(orow, data.Row(int(r)))
			}
		}
	})
	return out
}

// GatherSegmentSum is the fused gather→segment-aggregate kernel:
// out.Row(s) = Σ_{e: seg[e]==s} state.Row(src[e]), without materializing the
// E x D gathered message matrix — the sparse A@X product at the heart of the
// broadcast-safe sum/mean layers. Parallel over owned segment ranges; each
// segment accumulates in ascending edge order, bit-identical to
// SegmentSum(GatherRows(state, src), seg, nSeg).
func GatherSegmentSum(state *Matrix, src, seg []int32, nSeg int) *Matrix {
	return gatherSegmentSumInto(New(nSeg, state.Cols), state, src, seg) // New is already zeroed
}

// GatherSegmentSumInto computes GatherSegmentSum into dst (nSeg x
// state.Cols), overwriting it, and returns dst.
func GatherSegmentSumInto(dst, state *Matrix, src, seg []int32) *Matrix {
	dst.Zero()
	return gatherSegmentSumInto(dst, state, src, seg)
}

// gatherSegmentSumInto accumulates into dst, which must be zeroed.
func gatherSegmentSumInto(dst, state *Matrix, src, seg []int32) *Matrix {
	nSeg := dst.Rows
	if len(src) != len(seg) {
		panic(fmt.Sprintf("tensor: GatherSegmentSum %d src vs %d seg ids", len(src), len(seg)))
	}
	if dst.Cols != state.Cols {
		panic(fmt.Sprintf("tensor: GatherSegmentSumInto cols %d != %d", dst.Cols, state.Cols))
	}
	for _, s := range seg {
		if int(s) < 0 || int(s) >= nSeg {
			panic(fmt.Sprintf("tensor: GatherSegmentSum id %d out of %d segments", s, nSeg))
		}
	}
	for _, v := range src {
		if int(v) < 0 || int(v) >= state.Rows {
			panic(fmt.Sprintf("tensor: GatherSegmentSum src %d out of %d rows", v, state.Rows))
		}
	}
	if !segmentWorthParallel(len(seg), state.Cols) {
		for e, s := range seg {
			orow := dst.Row(int(s))
			srow := state.Row(int(src[e]))
			for j, v := range srow {
				orow[j] += v
			}
		}
		return dst
	}
	idx := buildSegmentIndex(seg, nSeg)
	parallelWeightedBlocks(nSeg, len(seg)*state.Cols, idx.starts, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			orow := dst.Row(s)
			for _, e := range idx.order[idx.starts[s]:idx.starts[s+1]] {
				srow := state.Row(int(src[e]))
				for j, v := range srow {
					orow[j] += v
				}
			}
		}
	})
	return dst
}

// checkViews validates a CSR view reduction: off must be a monotone offset
// array with one entry per dst row plus one, covering rows exactly, and
// every row view must span dst.Cols values. The payload views typically come
// from a message inbox, where a length mismatch would mean a corrupted
// message rather than a caller bug — panicking here keeps the failure at the
// kernel boundary instead of a silent partial accumulation.
func checkViews(op string, dst *Matrix, off []int32, rows [][]float32) {
	if len(off) != dst.Rows+1 {
		panic(fmt.Sprintf("tensor: %s %d offsets for %d segments", op, len(off), dst.Rows))
	}
	if int(off[dst.Rows]) != len(rows) {
		panic(fmt.Sprintf("tensor: %s offsets cover %d rows, got %d", op, off[dst.Rows], len(rows)))
	}
	for i, r := range rows {
		if len(r) != dst.Cols {
			panic(fmt.Sprintf("tensor: %s row %d has %d values, want %d", op, i, len(r), dst.Cols))
		}
	}
}

// SegmentSumViewsInto is the CSR form of SegmentSum over row views instead
// of matrix rows: dst.Row(s) = Σ rows[off[s]:off[s+1]], overwriting dst. The
// views need not come from one backing array — this is the fused
// whole-partition gather of the batched inference plane, where each view is
// a zero-copy payload view into a send buffer's pages. Parallel over segment blocks
// weighted by the CSR offsets (so power-law hub segments don't serialize one
// worker); each segment accumulates serially in ascending view order, the
// same order as the per-destination serial loop, so results are
// bit-identical at any Tuning.
func SegmentSumViewsInto(dst *Matrix, off []int32, rows [][]float32) *Matrix {
	checkViews("SegmentSumViews", dst, off, rows)
	dst.Zero()
	n := dst.Rows
	if n == 0 {
		return dst
	}
	fold := func(lo, hi int) {
		for s := lo; s < hi; s++ {
			orow := dst.Row(s)
			seg := rows[off[s]:off[s+1]]
			// Four views per sweep: each element still takes its adds one
			// view at a time, left to right, so the bits match the one-view
			// loop while orow is loaded and stored a quarter as often.
			for ; len(seg) >= 4; seg = seg[4:] {
				a, b, c, d := seg[0][:len(orow)], seg[1][:len(orow)], seg[2][:len(orow)], seg[3][:len(orow)]
				for j := range orow {
					orow[j] = orow[j] + a[j] + b[j] + c[j] + d[j]
				}
			}
			for _, drow := range seg {
				for j, v := range drow {
					orow[j] += v
				}
			}
		}
	}
	if serialKernel(n, len(rows)*dst.Cols) {
		fold(0, n)
		return dst
	}
	parallelWeightedBlocks(n, len(rows)*dst.Cols, off, fold)
	return dst
}

// SegmentExtremeViewsInto is the CSR-views form of SegmentMax/SegmentMin:
// the segment's first view seeds dst.Row(s), later views fold elementwise;
// empty segments produce zero rows (matching SegmentMax/Min). Every dst
// element is written, so an unzeroed (pooled) dst is safe. Fold order per
// segment is ascending view order — bit-identical to the serial loop,
// NaN propagation included.
func SegmentExtremeViewsInto(dst *Matrix, off []int32, rows [][]float32, isMax bool) *Matrix {
	checkViews("SegmentExtremeViews", dst, off, rows)
	n := dst.Rows
	if n == 0 {
		return dst
	}
	fold := func(lo, hi int) {
		for s := lo; s < hi; s++ {
			orow := dst.Row(s)
			seg := rows[off[s]:off[s+1]]
			if len(seg) == 0 {
				for j := range orow {
					orow[j] = 0
				}
				continue
			}
			copy(orow, seg[0])
			for _, drow := range seg[1:] {
				if isMax {
					for j, v := range drow {
						if v > orow[j] {
							orow[j] = v
						}
					}
				} else {
					for j, v := range drow {
						if v < orow[j] {
							orow[j] = v
						}
					}
				}
			}
		}
	}
	if serialKernel(n, len(rows)*dst.Cols) {
		fold(0, n)
		return dst
	}
	parallelWeightedBlocks(n, len(rows)*dst.Cols, off, fold)
	return dst
}

// SegmentSoftmax normalizes the scalar logits per segment with a numerically
// stable softmax: out[r] = exp(x[r]-max_seg)/sum_seg. This is GAT's
// SparseSoftmax over edges grouped by destination node.
func SegmentSoftmax(logits []float32, seg []int32, nSeg int) []float32 {
	maxes := make([]float32, nSeg)
	for i := range maxes {
		maxes[i] = float32(math.Inf(-1))
	}
	for r, s := range seg {
		if int(s) < 0 || int(s) >= nSeg {
			panic(fmt.Sprintf("tensor: SegmentSoftmax id %d out of %d", s, nSeg))
		}
		if logits[r] > maxes[s] {
			maxes[s] = logits[r]
		}
	}
	out := make([]float32, len(logits))
	sums := make([]float64, nSeg)
	for r, s := range seg {
		e := float32(math.Exp(float64(logits[r] - maxes[s])))
		out[r] = e
		sums[s] += float64(e)
	}
	for r, s := range seg {
		if sums[s] > 0 {
			out[r] = float32(float64(out[r]) / sums[s])
		}
	}
	return out
}

// SegmentSoftmaxBackward computes d logits given d probs for a segment
// softmax: dx = p * (dy - sum_seg(p*dy)).
func SegmentSoftmaxBackward(probs, dProbs []float32, seg []int32, nSeg int) []float32 {
	if len(probs) != len(dProbs) || len(probs) != len(seg) {
		panic("tensor: SegmentSoftmaxBackward length mismatch")
	}
	dots := make([]float64, nSeg)
	for r, s := range seg {
		dots[s] += float64(probs[r]) * float64(dProbs[r])
	}
	out := make([]float32, len(probs))
	for r, s := range seg {
		out[r] = probs[r] * (dProbs[r] - float32(dots[s]))
	}
	return out
}

// SegmentMeanBackward distributes dOut back to data rows for a SegmentMean:
// dData[r] = dOut[seg[r]] / count[seg[r]].
func SegmentMeanBackward(dOut *Matrix, seg []int32, counts []int32) *Matrix {
	out := New(len(seg), dOut.Cols)
	for r, s := range seg {
		c := counts[s]
		if c == 0 {
			continue
		}
		inv := 1 / float32(c)
		orow := out.Row(r)
		drow := dOut.Row(int(s))
		for j, v := range drow {
			orow[j] = v * inv
		}
	}
	return out
}

// SegmentSumBackward distributes dOut back to data rows for a SegmentSum:
// dData[r] = dOut[seg[r]].
func SegmentSumBackward(dOut *Matrix, seg []int32) *Matrix {
	out := New(len(seg), dOut.Cols)
	for r, s := range seg {
		copy(out.Row(r), dOut.Row(int(s)))
	}
	return out
}

func checkSegments(op string, data *Matrix, seg []int32, nSeg int) {
	if data.Rows != len(seg) {
		panic(fmt.Sprintf("tensor: %s %d rows but %d segment ids", op, data.Rows, len(seg)))
	}
	for _, s := range seg {
		if int(s) < 0 || int(s) >= nSeg {
			panic(fmt.Sprintf("tensor: %s id %d out of %d segments", op, s, nSeg))
		}
	}
}
