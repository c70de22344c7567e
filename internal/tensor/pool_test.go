package tensor

import "testing"

// TestPoolReturnsExactShape checks that a buffer Put at a non-power-of-two
// size comes back for the same shape: Put files it one class below the
// class GetNoZero computes for that shape, so the lookup has to reach down
// a class for it. A buffer in that lower class that is too small for the
// request must never be handed out.
func TestPoolReturnsExactShape(t *testing.T) {
	for _, shape := range [][2]int{{3750, 64}, {1000, 256}, {3, 5}} {
		rows, cols := shape[0], shape[1]
		p := NewPool()
		m := New(rows, cols)
		backing := &m.Data[0]
		p.Put(m)
		got := p.GetNoZero(rows, cols)
		if &got.Data[0] != backing {
			t.Fatalf("%dx%d: Put buffer not returned for the same shape", rows, cols)
		}
		p.Put(got)
		allocs := testing.AllocsPerRun(100, func() {
			p.Put(p.GetNoZero(rows, cols))
		})
		if allocs != 0 {
			t.Fatalf("%dx%d: Put/GetNoZero round trip allocates %v times", rows, cols, allocs)
		}
	}

	// Same class (floor(log2(cap)) = 17 for both), but 200000 < 240000.
	p := NewPool()
	small := New(1000, 200)
	p.Put(small)
	for i := 0; i < 3; i++ {
		got := p.GetNoZero(3750, 64)
		if &got.Data[0] == &small.Data[0] || cap(got.Data) < 3750*64 {
			t.Fatalf("GetNoZero(3750, 64) returned a buffer of cap %d", cap(got.Data))
		}
		p.Put(got)
	}
}
