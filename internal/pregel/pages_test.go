package pregel

import (
	"testing"
	"unsafe"
)

// pageWidth is the kindSum payload width of the pages run: a power of two,
// so payloads tile every page exactly and the capacity bound below has no
// tail slack.
const pageWidth = 32

// bufPages returns every page b owns, regular and oversized.
func bufPages(b *colBuf) [][]float32 {
	return append(append([][]float32(nil), b.pages...), b.big...)
}

// TestSendBufferPages checks the paged send buffers after every superstep
// of a run whose traffic repeats each superstep — fans of pageWidth-float
// payloads combined into (so shared views are materialized), and from
// vertex 0 one payload longer than maxPage: every payload view lies
// inside one page, a buffer's pages hold at most one maxPage beyond the
// floats carved from them, and from generation 2 on (when each pair gets
// back its generation-0 buffer) no superstep allocates a page.
func TestSendBufferPages(t *testing.T) {
	for _, workers := range []int{2, 3} {
		eng, _ := newProgEngine(randomGraph(2000, 10000, 23),
			testProg{rounds: 10, width: pageWidth, fan: true, long: maxPage + 8},
			Config{NumWorkers: workers, MaxSupersteps: 10, Combine: sumCombine})
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
