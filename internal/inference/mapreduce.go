package inference

import (
	"fmt"

	"inferturbo/internal/cluster"
	"inferturbo/internal/gas"
	"inferturbo/internal/graph"
	"inferturbo/internal/mapreduce"
	"inferturbo/internal/tensor"
)

// Record kinds flowing between MapReduce rounds. Unlike the Pregel driver,
// nothing stays resident between rounds: a node's state and its out-edge
// table are re-sent to itself every round, exactly the data flow the paper
// describes for a batch-processing backend.
const (
	mrSelf     uint8 = iota // the node's own state (or final logits)
	mrMsg                   // an in-edge message (possibly partially aggregated)
	mrOutEdges              // the node's out-edge structure + edge features
)

// mrVal is the MapReduce record value.
type mrVal struct {
	Kind    uint8
	Reduce  uint8
	Count   int32
	Payload []float32
	// Msg rides on a self record: the node's own emitted row, for a next
	// layer whose apply reads it back (gas.Emitter.SelfEmitted).
	Msg          []float32
	OutDsts      []int32
	OutEdgeFeats []float32 // flattened rows aligned with OutDsts
}

func mrValBytes(v mrVal) int {
	return 4*len(v.Payload) + 4*len(v.Msg) + 4*len(v.OutDsts) + 4*len(v.OutEdgeFeats) + 16
}

// mrCombine is partial-gather on the batch engine: within one producing
// task, mrMsg records for the same destination merge when their reduce obeys
// the commutative/associative laws. Everything else passes through.
func mrCombine(_ int32, values []mrVal) []mrVal {
	var out []mrVal
	merged := map[uint8]int{} // reduce kind -> index in out
	for _, v := range values {
		if v.Kind != mrMsg || !gas.ReduceKind(v.Reduce).Commutative() {
			out = append(out, v)
			continue
		}
		i, ok := merged[v.Reduce]
		if !ok {
			cp := v
			cp.Payload = append([]float32(nil), v.Payload...)
			merged[v.Reduce] = len(out)
			out = append(out, cp)
			continue
		}
		acc := &out[i]
		switch gas.ReduceKind(v.Reduce) {
		case gas.ReduceSum, gas.ReduceMean:
			for j, x := range v.Payload {
				acc.Payload[j] += x
			}
		case gas.ReduceMax:
			for j, x := range v.Payload {
				acc.Payload[j] = max32(acc.Payload[j], x)
			}
		case gas.ReduceMin:
			for j, x := range v.Payload {
				acc.Payload[j] = min32(acc.Payload[j], x)
			}
		}
		acc.Count += v.Count
	}
	return out
}

// mrDriver holds per-run state for the MapReduce driver.
type mrDriver struct {
	model *gas.Model
	// Per-task buffer pools: per-key aggregate and apply_node scratch
	// recycles here instead of allocating for every reduced key.
	pools []*tensor.Pool
	// Per-task flop counters per round, and peak single-key group bytes
	// (the streaming-reducer memory model).
	roundFlops [][]int64
	roundPeak  [][]int64
}

// wireMsg returns a node's wire message for Layers[k] from its state h and
// out-degree: h itself when the layer does not emit, else the layer's emit
// into a fresh slice (records own their payloads).
func (d *mrDriver) wireMsg(h []float32, k int, outDeg int32, p *tensor.Pool) []float32 {
	em := emitterOf(d.model.Layers[k])
	if em == nil {
		return h
	}
	msg := make([]float32, em.MsgDim())
	em.Emit(tensor.FromSlice(1, len(msg), msg), tensor.FromSlice(1, len(h), h), []int32{outDeg}, p)
	return msg
}

// selfRecord is node state h's self record for the round that applies
// Layers[k], carrying the node's own emitted row msg when that layer reads
// it back.
func (d *mrDriver) selfRecord(h, msg []float32, k int) mrVal {
	rec := mrVal{Kind: mrSelf, Payload: h}
	if keepsEmit(d.model.Layers[k]) {
		rec.Msg = msg
	}
	return rec
}

// aggregate folds a node's incoming messages into the layer's aggregate —
// one row, through the same aggregateInto every Pregel pass uses — and
// returns it with the message count.
func (d *mrDriver) aggregate(task int, layer gas.Conv, values []mrVal) (*gas.Aggregated, int) {
	var payloads [][]float32
	var counts []int32
	for _, v := range values {
		if v.Kind == mrMsg {
			payloads = append(payloads, v.Payload)
			counts = append(counts, v.Count)
		}
	}
	off := []int32{0, int32(len(payloads))}
	return aggregateInto(&gas.Aggregated{}, layer, off, payloads, counts, 1, d.pools[task]), len(payloads)
}

// RunMapReduce executes full-graph inference of model over g on the
// MapReduce engine with the given reduce-task count: one map round plus one
// reduce round per GNN layer. It is the batch-processing backend the paper's
// Table III/IV and Fig 7/8 compare against the Pregel driver, in the one
// configuration those experiments run: hash placement, the partial-gather
// combiner always on, shuffles in memory, reduce tasks one after another.
// Logits agree with ReferenceForward to float tolerance (the combiner and
// the shuffle fold messages in their own order).
func RunMapReduce(model *gas.Model, g *graph.Graph, workers int) (*Result, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("inference: invalid worker count %d", workers)
	}
	if err := validateModelGraph(model, g); err != nil {
		return nil, err
	}

	d := &mrDriver{model: model, pools: make([]*tensor.Pool, workers)}
	for i := range d.pools {
		d.pools[i] = tensor.NewPool()
	}
	eng := mapreduce.New(mapreduce.Config[int32, mrVal]{
		NumReducers: workers,
		Combine:     mrCombine,
		ValueBytes:  mrValBytes,
		Partition:   graph.NewPartitioner(workers).WorkerFor,
	})

	// Map phase: initialize h^0, keep self/out-edge records cycling, and
	// scatter the first layer's messages.
	nodes := make([]int32, g.NumNodes)
	for v := range nodes {
		nodes[v] = int32(v)
	}
	hasEdgeFeat := g.EdgeFeatures != nil
	mapPool := tensor.NewPool() // MapRound runs its mappers one after another
	current := mapreduce.MapRound(nodes, workers, func(v int32, emit mapreduce.Emitter[int32, mrVal]) {
		h := g.Features.Row(int(v))
		msg := d.wireMsg(h, 0, int32(g.OutDegree(v)), mapPool)
		emit(v, d.selfRecord(h, msg, 0))
		var rec *mrVal
		if dsts := g.OutNeighbors(v); len(dsts) > 0 {
			rec = &mrVal{Kind: mrOutEdges, OutDsts: dsts}
			if hasEdgeFeat {
				eids := g.OutEdgeIDs(v)
				flat := make([]float32, 0, len(eids)*g.EdgeFeatureDim())
				for _, e := range eids {
					flat = append(flat, g.EdgeFeatures.Row(int(e))...)
				}
				rec.OutEdgeFeats = flat
			}
			emit(v, *rec)
		}
		d.scatterEmit(msg, 0, rec, emit)
	})
	mapPhase := mapPhaseLoad(current, workers)

	numLayers := model.NumLayers()
	for round := 1; round <= numLayers; round++ {
		layer := model.Layers[round-1]
		last := round == numLayers
		flops := make([]int64, workers)
		peaks := make([]int64, workers)
		var reduceErr error

		next, _ := eng.Round(fmt.Sprintf("layer-%d", round), current,
			func(task int, key int32, values []mrVal, emit mapreduce.Emitter[int32, mrVal]) {
				var groupBytes int64
				for _, v := range values {
					groupBytes += int64(mrValBytes(v))
				}
				if groupBytes > peaks[task] {
					peaks[task] = groupBytes
				}

				var selfState, selfMsg []float32
				var outEdges *mrVal
				for i := range values {
					switch values[i].Kind {
					case mrSelf:
						selfState, selfMsg = values[i].Payload, values[i].Msg
					case mrOutEdges:
						outEdges = &values[i]
					}
				}
				if selfState == nil {
					reduceErr = fmt.Errorf("inference: node %d lost its state in round %d", key, round)
					return
				}
				aggr, numMsgs := d.aggregate(task, layer, values)
				state := tensor.FromSlice(1, len(selfState), selfState)
				if keepsEmit(layer) {
					aggr.Self = tensor.FromSlice(1, len(selfMsg), selfMsg)
				}
				out := gas.ApplyNodePooled(layer, state, aggr, d.pools[task])
				h := make([]float32, out.Cols)
				copy(h, out.Row(0))
				d.pools[task].Put(out)
				releaseAggregated(d.pools[task], aggr)
				flops[task] += layerNodeFlops(layer) + int64(numMsgs)*layerMsgFlops(layer)

				if last {
					emit(key, mrVal{Kind: mrSelf, Payload: h})
					return
				}
				var deg int32 // a node without out-edges has out-degree 0
				if outEdges != nil {
					deg = int32(len(outEdges.OutDsts))
				}
				msg := d.wireMsg(h, round, deg, d.pools[task])
				emit(key, d.selfRecord(h, msg, round))
				if outEdges != nil {
					emit(key, *outEdges)
				}
				d.scatterEmit(msg, round, outEdges, emit)
			})
		if reduceErr != nil {
			return nil, reduceErr
		}
		d.roundFlops = append(d.roundFlops, flops)
		d.roundPeak = append(d.roundPeak, peaks)
		current = next
	}

	// Assemble logits from the final round's self records.
	res := &Result{Logits: tensor.New(g.NumNodes, model.NumClasses)}
	filled := make([]bool, g.NumNodes)
	for _, part := range current {
		for _, p := range part {
			if p.Value.Kind != mrSelf {
				continue
			}
			if len(p.Value.Payload) != model.NumClasses {
				return nil, fmt.Errorf("inference: node %d finished with dim %d, want %d", p.Key, len(p.Value.Payload), model.NumClasses)
			}
			res.Logits.SetRow(int(p.Key), p.Value.Payload)
			filled[p.Key] = true
		}
	}
	for v, ok := range filled {
		if !ok {
			return nil, fmt.Errorf("inference: node %d missing from final round output", v)
		}
	}
	res.finalize(model)
	res.Stats, res.Phases = mrStats(eng, d, mapPhase, workers)
	return res, nil
}

// scatterEmit is apply_edge + scatter of wire message h (see wireMsg) for
// the messages Layers[k] consumes next round. It reads the out-edge record
// that travels with the node (the MR data flow), never the resident
// topology; rec is nil for a node without out-edges.
func (d *mrDriver) scatterEmit(h []float32, k int, rec *mrVal, emit mapreduce.Emitter[int32, mrVal]) {
	if rec == nil {
		return // no out-edges
	}
	sendLayer := d.model.Layers[k]
	dsts := rec.OutDsts
	reduce := uint8(sendLayer.Reduce())
	if sendLayer.BroadcastSafe() {
		m := mrVal{Kind: mrMsg, Reduce: reduce, Count: 1, Payload: h}
		for _, dst := range dsts {
			emit(dst, m)
		}
		return
	}
	state := tensor.FromSlice(1, len(h), h)
	edgeDim := len(rec.OutEdgeFeats) / len(dsts)
	for i, dst := range dsts {
		var ef *tensor.Matrix
		if edgeDim > 0 {
			row := rec.OutEdgeFeats[i*edgeDim : (i+1)*edgeDim]
			ef = tensor.FromSlice(1, edgeDim, row)
		}
		payload := sendLayer.ApplyEdge(state, ef)
		out := make([]float32, payload.Cols)
		copy(out, payload.Row(0))
		emit(dst, mrVal{Kind: mrMsg, Reduce: reduce, Count: 1, Payload: out})
	}
}

// mapPhaseLoad prices the map phase from its actual emissions.
func mapPhaseLoad(mapped [][]mapreduce.Pair[int32, mrVal], workers int) cluster.Phase {
	ph := cluster.Phase{Name: "map", Workers: make([]cluster.WorkerLoad, workers)}
	for m, part := range mapped {
		var bytes int64
		for _, p := range part {
			bytes += int64(mrValBytes(p.Value))
		}
		ph.Workers[m] = cluster.WorkerLoad{
			BytesOut: bytes,
			MsgsOut:  int64(len(part)),
			Flops:    int64(len(part)) * 8, // feature copy / encode cost
			PeakMem:  1 << 20,              // mappers stream; negligible state
		}
	}
	return ph
}

// mrStats converts round metrics into run stats and cluster phases.
func mrStats(eng *mapreduce.Engine[int32, mrVal], d *mrDriver, mapPhase cluster.Phase, workers int) (Stats, []cluster.Phase) {
	st := Stats{
		WorkerBytesIn:   make([]int64, workers),
		WorkerBytesOut:  make([]int64, workers),
		WorkerFlops:     make([]int64, workers),
		WorkerInRecords: make([]int64, workers),
	}
	phases := []cluster.Phase{mapPhase}
	for r, round := range eng.Rounds() {
		st.Supersteps++
		ph := cluster.Phase{Name: round.Name, Workers: make([]cluster.WorkerLoad, workers)}
		var roundCombined int64
		for _, tm := range round.Reducers {
			roundCombined += tm.CombinedAway
		}
		for _, tm := range round.Reducers {
			w := tm.Task
			flops := d.roundFlops[r][w]
			// Combiner flops are spread across producers; attribute evenly.
			if roundCombined > 0 && r < d.model.NumLayers() {
				flops += roundCombined * layerMsgFlops(d.model.Layers[r]) / int64(workers)
			}
			ph.Workers[w] = cluster.WorkerLoad{
				Flops:    flops,
				BytesIn:  tm.InputBytes,
				BytesOut: tm.OutputBytes,
				MsgsIn:   tm.InputRecords,
				MsgsOut:  tm.OutputRecords,
				PeakMem:  d.roundPeak[r][w] + (1 << 20),
			}
			st.MessagesSent += tm.OutputRecords
			st.BytesSent += tm.OutputBytes
			st.BytesReceived += tm.InputBytes
			st.CombinedAway += tm.CombinedAway
			st.WorkerBytesIn[w] += tm.InputBytes
			st.WorkerBytesOut[w] += tm.OutputBytes
			st.WorkerFlops[w] += flops
			st.WorkerInRecords[w] += tm.InputRecords
		}
		phases = append(phases, ph)
	}
	return st, phases
}
