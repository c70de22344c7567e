package tensor

import (
	"math/bits"
	"sync"
)

// Pool is a free-list of Matrix buffers keyed by capacity class (powers of
// two), so hot loops — a superstep's per-vertex apply_node, a reference
// forward's per-layer intermediates — can recycle buffers instead of
// allocating per call and feeding the GC.
//
// Get/Put are safe for concurrent use; the inference drivers additionally
// keep one Pool per worker so the per-vertex path never contends. A Matrix
// obtained from a Pool is an ordinary Matrix: returning it via Put is an
// optimization, never a requirement, and matrices from other sources may be
// Put as well.
type Pool struct {
	mu      sync.Mutex
	buckets map[uint][]*Matrix
}

// NewPool returns an empty buffer pool.
func NewPool() *Pool {
	return &Pool{buckets: make(map[uint][]*Matrix)}
}

// sizeClass returns the smallest c with 1<<c >= n (n > 0).
func sizeClass(n int) uint {
	return uint(bits.Len(uint(n - 1)))
}

// Get returns a zeroed rows x cols matrix, reusing a pooled buffer when one
// of sufficient capacity is available.
func (p *Pool) Get(rows, cols int) *Matrix {
	m := p.GetNoZero(rows, cols)
	m.Zero()
	return m
}

// GetNoZero returns a rows x cols matrix whose element values are
// unspecified — for callers that overwrite every element (MatMulInto,
// GatherRowsInto). Use Get when stale values could leak.
func (p *Pool) GetNoZero(rows, cols int) *Matrix {
	need := rows * cols
	if need <= 0 {
		return New(rows, cols)
	}
	cls := sizeClass(need)
	p.mu.Lock()
	// Put files a buffer under floor(log2(cap)), so one of exactly need
	// floats — the usual case: the same shape coming back — sits in bucket
	// cls-1 whenever need is not a power of two. Only the buffers there with
	// cap >= need fit; every buffer in cls and cls+1 does.
	if cls > 0 {
		list := p.buckets[cls-1]
		for i := len(list) - 1; i >= 0; i-- {
			if m := list[i]; cap(m.Data) >= need {
				list[i] = list[len(list)-1]
				p.buckets[cls-1] = list[:len(list)-1]
				p.mu.Unlock()
				return reshape(m, rows, cols, need)
			}
		}
	}
	for c := cls; c < cls+2; c++ {
		if list := p.buckets[c]; len(list) > 0 {
			m := list[len(list)-1]
			p.buckets[c] = list[:len(list)-1]
			p.mu.Unlock()
			return reshape(m, rows, cols, need)
		}
	}
	p.mu.Unlock()
	// Exact-size allocation: rounding up to the class size would inflate
	// peak memory up to ~2x on the system's largest buffers for no semantic
	// gain, and the cls-1 scan above finds the buffer again once it is Put.
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, need)}
}

// reshape relabels a pooled buffer as a rows x cols matrix of need floats.
func reshape(m *Matrix, rows, cols, need int) *Matrix {
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:need]
	return m
}

// maxPerBucket bounds how many free buffers a size class retains; extras
// are dropped to the GC so a pathological Put pattern cannot grow the pool
// without bound.
const maxPerBucket = 16

// Put returns m's buffer to the pool. The caller must not use m afterwards.
// nil and empty matrices are ignored.
func (p *Pool) Put(m *Matrix) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	// Bucket by floor(log2(cap)), so every buffer in bucket c has capacity
	// >= 1<<c and fits any GetNoZero with need <= 1<<c; GetNoZero also
	// checks bucket c for the larger needs a given buffer still fits.
	cls := uint(bits.Len(uint(cap(m.Data)))) - 1
	p.mu.Lock()
	if len(p.buckets[cls]) < maxPerBucket {
		p.buckets[cls] = append(p.buckets[cls], m)
	}
	p.mu.Unlock()
}

// Reset drops every free buffer, releasing the pool's retained memory to
// the GC. Buffers currently checked out are unaffected (they simply rejoin
// on their next Put). Long-lived pools call this after a large run so its
// peak working set does not stay resident.
func (p *Pool) Reset() {
	p.mu.Lock()
	clear(p.buckets)
	p.mu.Unlock()
}
