package pregel

import (
	"testing"
	"unsafe"
)

// pageWidth is the payload width of pageProg: a power of two, so payloads
// tile every page exactly and the capacity bound below has no tail slack.
const pageWidth = 32

// pageProg sends the same message pattern every superstep: a fan of one
// payload along every out-edge (combined into, so shared views are
// materialized), one exclusive payload to the first out-edge, and from
// vertex 0 one payload longer than maxPage.
type pageProg struct{ long []float32 }

func (p *pageProg) Compute(ctx *Context[float32, [3]float32], _ [][3]float32) {
	if ctx.Superstep == 0 {
		*ctx.Value = float32(int(ctx.ID)%7 + 1)
	} else {
		in := ctx.ColumnarInbox()
		var s float32
		for i := 0; i < in.Len(); i++ {
			s += in.Payloads[i][0]
		}
		*ctx.Value = float32(int(s) % sumMod)
	}
	dsts, _ := ctx.OutEdges()
	if len(dsts) == 0 {
		return
	}
	var pay [pageWidth]float32
	for i := range pay {
		pay[i] = *ctx.Value + float32(i)
	}
	ctx.SendColumnarFan(dsts, 0, ctx.ID, 1, pay[:])
	ctx.SendColumnar(dsts[0], 1, ctx.ID, 1, pay[:])
	if ctx.ID == 0 {
		ctx.SendColumnar(dsts[0], 2, ctx.ID, 1, p.long)
	}
}

// bufPages returns every page b owns, regular and oversized.
func bufPages(b *colBuf) [][]float32 {
	return append(append([][]float32(nil), b.pages...), b.big...)
}

// TestSendBufferPages checks the paged send buffers after every superstep
// of a run whose traffic repeats each superstep: every payload view lies
// inside one page, a buffer's pages hold at most one maxPage beyond the
// floats carved from them, and from generation 2 on (when each pair gets
// back its generation-0 buffer) no superstep allocates a page.
func TestSendBufferPages(t *testing.T) {
	for _, workers := range []int{2, 3} {
		topo := randomTopology(t, 2000, 10000, 23)
		eng := NewEngine[float32, [3]float32](topo, &pageProg{long: make([]float32, maxPage+8)},
			Config[[3]float32]{NumWorkers: workers, MaxSupersteps: 10,
				Columnar: &ColumnarOps{Combine: colSumCombiner}})
		seen := map[*float32]bool{}
		maxPages, bigPages, combined := 0, 0, int64(0)
		for step := 0; step < 5; step++ {
			if eng.runSuperstep(step) {
				t.Fatalf("workers=%d: superstep %d crashed", workers, step)
			}
			for _, m := range eng.metrics[len(eng.metrics)-1] {
				combined += m.CombinedAway
			}
			var fresh []*float32
			for s := range eng.colLive {
				for r, b := range eng.colLive[s] {
					pages := bufPages(b)
					used, capacity := 0, 0
					for _, pg := range pages {
						used += len(pg)
						capacity += cap(pg)
						if base := unsafe.SliceData(pg); base != nil && !seen[base] {
							fresh = append(fresh, base)
						}
					}
					if capacity > used+maxPage {
						t.Fatalf("workers=%d step %d buffer %d→%d: %d floats of pages for %d carved",
							workers, step, s, r, capacity, used)
					}
					for i, v := range b.pays {
						if len(v) > 0 && !inOnePage(v, pages) {
							t.Fatalf("workers=%d step %d buffer %d→%d: payload %d lies in no single page",
								workers, step, s, r, i)
						}
					}
					maxPages = max(maxPages, len(b.pages))
					bigPages = max(bigPages, b.nbig)
				}
			}
			if step >= 2 && len(fresh) > 0 {
				t.Fatalf("workers=%d generation %d allocated %d pages", workers, step, len(fresh))
			}
			for _, base := range fresh {
				seen[base] = true
			}
		}
		// The run must reach the page cap (page 4 is the first maxPage one),
		// the oversized path and the copy-on-merge path, or the checks above
		// prove little.
		if maxPages < 5 || bigPages == 0 || combined == 0 {
			t.Fatalf("workers=%d: run too small: %d pages, %d oversized, %d combined",
				workers, maxPages, bigPages, combined)
		}
	}
}

// inOnePage reports whether v's floats all lie inside one of pages.
func inOnePage(v []float32, pages [][]float32) bool {
	lo := uintptr(unsafe.Pointer(&v[0]))
	hi := lo + uintptr(len(v))*4
	for _, pg := range pages {
		if cap(pg) == 0 {
			continue
		}
		base := uintptr(unsafe.Pointer(unsafe.SliceData(pg)))
		if lo >= base && hi <= base+uintptr(cap(pg))*4 {
			return true
		}
	}
	return false
}
