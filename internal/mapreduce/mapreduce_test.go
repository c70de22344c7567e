package mapreduce

import (
	"sort"
	"strings"
	"testing"
)

// runWordCount executes the canonical two-phase wordcount on the engine.
func runWordCount(t *testing.T, cfg Config[string, int], lines []string) map[string]int {
	t.Helper()
	mapped := MapRound(lines, 3, func(line string, emit Emitter[string, int]) {
		for _, w := range strings.Fields(line) {
			emit(strings.ToLower(w), 1)
		}
	})
	eng := New(cfg)
	out, _ := eng.Round("count", mapped, func(_ int, key string, values []int, emit Emitter[string, int]) {
		total := 0
		for _, v := range values {
			total += v
		}
		emit(key, total)
	})
	counts := map[string]int{}
	for _, part := range out {
		for _, p := range part {
			counts[p.Key] += p.Value
		}
	}
	return counts
}

var corpus = []string{
	"the quick brown fox",
	"jumps over the lazy dog",
	"the dog barks",
	"quick quick fox",
}

var wantCounts = map[string]int{
	"the": 3, "quick": 3, "fox": 2, "dog": 2,
	"brown": 1, "jumps": 1, "over": 1, "lazy": 1, "barks": 1,
}

func TestWordCount(t *testing.T) {
	got := runWordCount(t, Config[string, int]{NumReducers: 4}, corpus)
	if len(got) != len(wantCounts) {
		t.Fatalf("got %d words, want %d: %v", len(got), len(wantCounts), got)
	}
	for w, c := range wantCounts {
		if got[w] != c {
			t.Fatalf("count[%s] = %d, want %d", w, got[w], c)
		}
	}
}

func TestWordCountWithCombiner(t *testing.T) {
	cfg := Config[string, int]{
		NumReducers: 4,
		Combine: func(_ string, values []int) []int {
			total := 0
			for _, v := range values {
				total += v
			}
			return []int{total}
		},
	}
	got := runWordCount(t, cfg, corpus)
	for w, c := range wantCounts {
		if got[w] != c {
			t.Fatalf("combined count[%s] = %d, want %d", w, got[w], c)
		}
	}
}

func TestCombinerReducesShuffleRecords(t *testing.T) {
	// "quick quick quick ..." from one mapper should collapse to one record.
	lines := []string{strings.Repeat("word ", 50)}
	mapped := MapRound(lines, 1, func(line string, emit Emitter[string, int]) {
		for _, w := range strings.Fields(line) {
			emit(w, 1)
		}
	})
	eng := New(Config[string, int]{
		NumReducers: 2,
		Combine: func(_ string, values []int) []int {
			total := 0
			for _, v := range values {
				total += v
			}
			return []int{total}
		},
	})
	_, m := eng.Round("count", mapped, func(_ int, key string, values []int, emit Emitter[string, int]) {
		emit(key, len(values))
	})
	var in, combined int64
	for _, tm := range m.Reducers {
		in += tm.InputRecords
		combined += tm.CombinedAway
	}
	if in != 1 {
		t.Fatalf("input records = %d, want 1 after combining", in)
	}
	if combined != 49 {
		t.Fatalf("combined away = %d, want 49", combined)
	}
}

func TestChainedRounds(t *testing.T) {
	// Round 1 counts words; round 2 buckets counts by frequency.
	mapped := MapRound(corpus, 2, func(line string, emit Emitter[string, int]) {
		for _, w := range strings.Fields(line) {
			emit(strings.ToLower(w), 1)
		}
	})
	eng := New(Config[string, int]{NumReducers: 3})
	counts, _ := eng.Round("count", mapped, func(_ int, key string, values []int, emit Emitter[string, int]) {
		total := 0
		for _, v := range values {
			total += v
		}
		emit(key, total)
	})
	// Second round: key = "freq:<n>", value = 1 per word with that count.
	reKeyed := make([][]Pair[string, int], len(counts))
	for i, part := range counts {
		for _, p := range part {
			reKeyed[i] = append(reKeyed[i], Pair[string, int]{Key: "freq", Value: p.Value})
		}
	}
	hist, _ := eng.Round("hist", reKeyed, func(_ int, key string, values []int, emit Emitter[string, int]) {
		byFreq := map[int]int{}
		for _, v := range values {
			byFreq[v]++
		}
		for f, n := range byFreq {
			emit(key, f*1000+n) // encode (freq, n)
		}
	})
	var encoded []int
	for _, part := range hist {
		for _, p := range part {
			encoded = append(encoded, p.Value)
		}
	}
	sort.Ints(encoded)
	// freq 1 ×5 words, freq 2 ×2, freq 3 ×2.
	want := []int{1005, 2002, 3002}
	if len(encoded) != len(want) {
		t.Fatalf("hist = %v", encoded)
	}
	for i := range want {
		if encoded[i] != want[i] {
			t.Fatalf("hist = %v, want %v", encoded, want)
		}
	}
	if len(eng.Rounds()) != 2 {
		t.Fatalf("round metrics = %d, want 2", len(eng.Rounds()))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []Pair[int32, int] {
		mapped := MapRound([]int{5, 3, 8, 3, 5, 5}, 2, func(v int, emit Emitter[int32, int]) {
			emit(int32(v), 1)
		})
		eng := New(Config[int32, int]{NumReducers: 3})
		out, _ := eng.Round("r", mapped, func(_ int, key int32, values []int, emit Emitter[int32, int]) {
			emit(key, len(values))
		})
		var flat []Pair[int32, int]
		for _, part := range out {
			flat = append(flat, part...)
		}
		return flat
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic output size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic output at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPartitionCoversAllReducers(t *testing.T) {
	eng := New(Config[int32, int]{NumReducers: 4})
	seen := map[int]bool{}
	for k := int32(0); k < 100; k++ {
		p := eng.cfg.Partition(k)
		if p < 0 || p >= 4 {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d reducers used", len(seen))
	}
}

func TestKeysProcessedMetric(t *testing.T) {
	mapped := MapRound([]string{"a b c a"}, 1, func(line string, emit Emitter[string, int]) {
		for _, w := range strings.Fields(line) {
			emit(w, 1)
		}
	})
	eng := New(Config[string, int]{NumReducers: 2})
	_, m := eng.Round("r", mapped, func(_ int, key string, values []int, emit Emitter[string, int]) {})
	var keys int64
	for _, tm := range m.Reducers {
		keys += tm.KeysProcessed
	}
	if keys != 3 {
		t.Fatalf("keys processed = %d, want 3", keys)
	}
}

func TestNewPanicsOnBadReducers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config[string, int]{NumReducers: 0})
}

func TestMapRoundPanicsOnBadMappers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MapRound([]int{1}, 0, func(int, Emitter[int, int]) {})
}

func TestEmptyInputRound(t *testing.T) {
	eng := New(Config[string, int]{NumReducers: 2})
	out, m := eng.Round("empty", nil, func(_ int, key string, values []int, emit Emitter[string, int]) {
		emit(key, 1)
	})
	for _, part := range out {
		if len(part) != 0 {
			t.Fatal("empty input must produce empty output")
		}
	}
	if m.ShuffleBytes != 0 {
		t.Fatal("no shuffle bytes expected")
	}
}
