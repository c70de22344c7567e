// Package mapreduce implements a batch-processing engine in the MapReduce
// mold: rounds of map → combine → shuffle → reduce over key/value pairs,
// with deterministic grouping, optional sender-side combining (the hook the
// paper's partial-gather uses on this backend), in-memory shuffles, and
// per-task IO accounting that feeds the cluster cost model.
//
// inference.RunMapReduce chains k+1 rounds of this engine to execute a
// k-layer GNN for the paper's batch-backend experiments; wordcount in the
// tests validates the engine itself.
package mapreduce

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"sort"
)

// Pair is one key/value record flowing between rounds.
type Pair[K cmp.Ordered, V any] struct {
	Key   K
	Value V
}

// Emitter receives records produced by map or reduce functions.
type Emitter[K cmp.Ordered, V any] func(key K, value V)

// Config tunes an engine.
type Config[K cmp.Ordered, V any] struct {
	// NumReducers is the reduce-task count (the paper's instance count).
	NumReducers int
	// Combine optionally merges the values of one key within one producing
	// task before shuffle — MapReduce's combiner.
	Combine func(key K, values []V) []V
	// ValueBytes estimates a record's wire size for IO accounting; a
	// constant 64 bytes when nil.
	ValueBytes func(V) int
	// Partition overrides the key → reducer mapping (default: FNV hash).
	Partition func(K) int
}

// TaskMetrics records one task's activity during one round.
type TaskMetrics struct {
	Task          int
	InputRecords  int64
	InputBytes    int64
	OutputRecords int64
	OutputBytes   int64
	KeysProcessed int64
	CombinedAway  int64
}

// RoundMetrics aggregates one round.
type RoundMetrics struct {
	Name         string
	Reducers     []TaskMetrics
	ShuffleBytes int64
}

// Engine executes rounds. The zero value is unusable; construct with New.
type Engine[K cmp.Ordered, V any] struct {
	cfg    Config[K, V]
	rounds []RoundMetrics
}

// New validates the config and returns an engine.
func New[K cmp.Ordered, V any](cfg Config[K, V]) *Engine[K, V] {
	if cfg.NumReducers <= 0 {
		panic(fmt.Sprintf("mapreduce: invalid reducer count %d", cfg.NumReducers))
	}
	if cfg.ValueBytes == nil {
		cfg.ValueBytes = func(V) int { return 64 }
	}
	if cfg.Partition == nil {
		cfg.Partition = func(k K) int { return defaultPartition(k, cfg.NumReducers) }
	}
	return &Engine[K, V]{cfg: cfg}
}

func defaultPartition[K cmp.Ordered](k K, n int) int {
	switch v := any(k).(type) {
	case int:
		return abs(v) % n
	case int32:
		return abs(int(v)) % n
	case int64:
		return abs(int(v)) % n
	case string:
		h := fnv.New32a()
		h.Write([]byte(v))
		return int(h.Sum32()) % n
	default:
		h := fnv.New32a()
		fmt.Fprintf(h, "%v", v)
		return int(h.Sum32()) % n
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// MapRound partitions inputs across numMappers map tasks and collects each
// task's emissions, producing the producer-partitioned record lists a
// subsequent Round consumes. Mapper i processes inputs i, i+numMappers, ...
// so the split is deterministic.
func MapRound[I any, K cmp.Ordered, V any](inputs []I, numMappers int, mapFn func(item I, emit Emitter[K, V])) [][]Pair[K, V] {
	if numMappers <= 0 {
		panic("mapreduce: invalid mapper count")
	}
	out := make([][]Pair[K, V], numMappers)
	for m := 0; m < numMappers; m++ {
		emit := func(k K, v V) {
			out[m] = append(out[m], Pair[K, V]{Key: k, Value: v})
		}
		for i := m; i < len(inputs); i += numMappers {
			mapFn(inputs[i], emit)
		}
	}
	return out
}

// Round shuffles producer-partitioned inputs by key and runs reduce over
// each key group, returning the reducer-partitioned outputs (which can feed
// the next Round) and this round's metrics. Reduce tasks run one after
// another, each over its keys in ascending order; the task id lets reducers
// keep per-task scratch state across key groups.
func (e *Engine[K, V]) Round(name string, inputs [][]Pair[K, V], reduce func(task int, key K, values []V, emit Emitter[K, V])) ([][]Pair[K, V], RoundMetrics) {
	r := e.cfg.NumReducers
	metrics := RoundMetrics{Name: name, Reducers: make([]TaskMetrics, r)}
	for i := range metrics.Reducers {
		metrics.Reducers[i].Task = i
	}

	// Combine within each producing task, then bucket records by reducer.
	buckets := make([][]Pair[K, V], r)
	for _, produced := range inputs {
		records := produced
		if e.cfg.Combine != nil {
			combined, removed := combineTask(records, e.cfg.Combine)
			records = combined
			// Attribute combiner savings to the receiving side evenly; the
			// per-producer attribution is not observable in the paper's
			// metrics, only the total reduction is.
			metrics.Reducers[0].CombinedAway += removed
		}
		for _, p := range records {
			buckets[e.cfg.Partition(p.Key)] = append(buckets[e.cfg.Partition(p.Key)], p)
		}
	}

	outputs := make([][]Pair[K, V], r)
	for i := 0; i < r; i++ {
		tm := &metrics.Reducers[i]
		tm.InputRecords = int64(len(buckets[i]))
		for _, p := range buckets[i] {
			tm.InputBytes += int64(e.cfg.ValueBytes(p.Value))
		}
		// Group by key deterministically: first-seen order collection, then
		// sorted-key iteration.
		groups := map[K][]V{}
		var keys []K
		for _, p := range buckets[i] {
			if _, ok := groups[p.Key]; !ok {
				keys = append(keys, p.Key)
			}
			groups[p.Key] = append(groups[p.Key], p.Value)
		}
		sort.Slice(keys, func(a, b int) bool { return cmp.Less(keys[a], keys[b]) })
		emit := func(k K, v V) {
			outputs[i] = append(outputs[i], Pair[K, V]{Key: k, Value: v})
			tm.OutputRecords++
			tm.OutputBytes += int64(e.cfg.ValueBytes(v))
		}
		for _, k := range keys {
			tm.KeysProcessed++
			reduce(i, k, groups[k], emit)
		}
		metrics.ShuffleBytes += tm.InputBytes
	}
	e.rounds = append(e.rounds, metrics)
	return outputs, metrics
}

// Rounds returns the metrics of every round executed so far.
func (e *Engine[K, V]) Rounds() []RoundMetrics { return e.rounds }

// combineTask merges values per key within one producing task, preserving
// first-seen key order.
func combineTask[K cmp.Ordered, V any](records []Pair[K, V], combine func(K, []V) []V) ([]Pair[K, V], int64) {
	groups := map[K][]V{}
	var keys []K
	for _, p := range records {
		if _, ok := groups[p.Key]; !ok {
			keys = append(keys, p.Key)
		}
		groups[p.Key] = append(groups[p.Key], p.Value)
	}
	var out []Pair[K, V]
	for _, k := range keys {
		for _, v := range combine(k, groups[k]) {
			out = append(out, Pair[K, V]{Key: k, Value: v})
		}
	}
	return out, int64(len(records) - len(out))
}
