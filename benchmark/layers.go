package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/graph"
	"inferturbo/internal/inference"
	"inferturbo/internal/serve"
	"inferturbo/internal/tensor"
)

// shippedBatchWindow mirrors serve.New's default BatchWindow, which the
// benchmark leaves unset; serve.window_share divides it by query_p50_ms.
const shippedBatchWindow = 2 * time.Millisecond

// perLayer runs the traced run's probes: every call the harness makes into a
// layer's public functions sits in a span named <module>.<function>, and the
// counts come from Result.Stats, /v1/stats and the Session / WAL accessors.
// The values are report-only; README.md says which end-to-end metric each
// should move.
func (f *fixture) perLayer(s *samples, parts []setupTimes, refForward time.Duration, dir string) ([]metric, error) {
	root := f.tr.begin("bench.probes", -1, 0)
	defer f.tr.end(root)
	reps := f.sc.ProbeReps
	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v, unit}) }

	// Set-up parts.
	var gen, load []time.Duration
	for _, p := range parts {
		gen, load = append(gen, p.Generate), append(load, p.Load)
	}
	add("datagen.generate_s", median(seconds(gen)), "s")
	add("graph.load_s", median(seconds(load)), "s")

	// graph: placement, one mutation batch, one 16-root neighbourhood.
	const partReps = 1000
	d := f.tr.timed("graph.Hash.Partition", root, func() {
		for i := 0; i < partReps; i++ {
			partitionSink = graph.Hash{}.Partition(f.g, 8)
		}
	})
	add("graph.partition_ms", float64(d)/1e6/partReps, "ms")

	probeMut := newMutator(f.g, tensor.NewRNG(f.seed+5), f.w.HubRewrite)
	round := make([]graph.Delta, f.sc.RoundBatches)
	for i := range round {
		round[i] = toDelta(probeMut.next(i == 0))
	}
	var applies []time.Duration
	g := f.g
	for _, dl := range round {
		var err error
		applies = append(applies, f.tr.timed("graph.ApplyDelta", root, func() { g, _, err = graph.ApplyDelta(g, dl) }))
		if err != nil {
			return nil, fmt.Errorf("graph.ApplyDelta: %w", err)
		}
	}
	add("graph.apply_delta_ms", median(millis(applies)), "ms")

	rootRNG := tensor.NewRNG(f.seed + 4)
	var khops []time.Duration
	khopNodes := 0
	khopSets := 10 * reps
	for i := 0; i < khopSets; i++ {
		roots := f.pickRoots(rootRNG, 16)
		var ind *graph.Induced
		var err error
		khops = append(khops, f.tr.timed("graph.KHop+Induce", root, func() {
			ind, err = graph.KHop(f.g, roots, graph.KHopOptions{Hops: f.model.NumLayers()}).Induce(f.g, nil)
		}))
		if err != nil {
			return nil, fmt.Errorf("graph.Induce: %w", err)
		}
		khopNodes += ind.G.NumNodes
	}
	add("graph.khop_induce_ms", median(millis(khops)), "ms")
	add("graph.khop_nodes", float64(khopNodes)/float64(khopSets), "count")

	// tensor: the two kernels a pass leans on, at the workload's shapes.
	n8, din, dout := f.g.NumNodes/8, f.model.InDim(), f.model.Layers[0].OutDim()
	a, b, c := tensor.New(n8, din), tensor.New(din, dout), tensor.New(n8, dout)
	krng := tensor.NewRNG(f.seed + 6)
	krng.Uniform(a, -1, 1)
	krng.Uniform(b, -1, 1)
	var mm []float64
	for i := 0; i < 4*reps; i++ {
		d := f.tr.timed("tensor.MatMulInto", root, func() { tensor.MatMulInto(c, a, b) })
		mm = append(mm, 2*float64(n8)*float64(din)*float64(dout)/d.Seconds()/1e9)
	}
	add("tensor.matmul_gflops", median(mm), "GFLOP/s")

	seg := make([]int32, 0, f.g.NumEdges)
	for v := int32(0); v < int32(f.g.NumNodes); v++ {
		for i := 0; i < f.g.InDegree(v); i++ {
			seg = append(seg, v)
		}
	}
	dst := tensor.New(f.g.NumNodes, din)
	// Bytes are computed from sizes: one state row read per in-edge, one
	// output row written per node.
	segBytes := float64(f.g.NumEdges+f.g.NumNodes) * float64(din) * 4
	var gbs []float64
	for i := 0; i < 4*reps; i++ {
		d := f.tr.timed("tensor.GatherSegmentSumInto", root, func() {
			tensor.GatherSegmentSumInto(dst, f.g.Features, f.g.InSrc, seg)
		})
		gbs = append(gbs, segBytes/d.Seconds()/1e9)
	}
	add("tensor.segment_sum_gbs", median(gbs), "GB/s")

	// gas: the single-process floor and the model's arithmetic.
	refs := []time.Duration{refForward}
	for i := 1; i < min(reps, 3); i++ {
		refs = append(refs, f.tr.timed("inference.ReferenceForward", root, func() { inference.ReferenceForward(f.model, f.g) }))
	}
	add("gas.reference_forward_s", median(seconds(refs)), "s")
	st := s.firstPass.Stats
	add("gas.flops_per_pass", float64(sum64(st.WorkerFlops)), "FLOP")

	// pregel: the paper's IO and load-balance figures, exact counts.
	add("pregel.messages", float64(st.MessagesSent), "count")
	add("pregel.bytes_sent_mb", float64(st.BytesSent)/1e6, "MB")
	add("pregel.remote_mb", float64(st.RemoteBytes)/1e6, "MB")
	add("pregel.combined_away", float64(st.CombinedAway), "count")
	add("pregel.broadcast_hubs", float64(st.BroadcastHubs), "count")
	add("pregel.tail_inbox_ratio", float64(slices.Max(st.WorkerInRecords))*float64(len(st.WorkerInRecords))/float64(sum64(st.WorkerInRecords)), "ratio")

	// inference: what parallelism and the strategy buy, and the session.
	pass := func(name string, o inference.Options) (float64, error) {
		var ds []time.Duration
		for i := 0; i < min(reps, 3); i++ {
			var err error
			ds = append(ds, f.tr.timed(name, root, func() { _, err = inference.RunPregel(f.model, f.g, o) }))
			if err != nil {
				return 0, err
			}
		}
		return median(seconds(ds)), nil
	}
	serial := f.w.Pass
	serial.Parallel = false
	serialS, err := pass("inference.RunPregel(serial)", serial)
	if err != nil {
		return nil, err
	}
	plain := f.w.Pass
	plain.PartialGather, plain.Broadcast, plain.HubThreshold = false, false, 0
	plainS, err := pass("inference.RunPregel(plain)", plain)
	if err != nil {
		return nil, err
	}
	add("inference.pass_serial_s", serialS, "s")
	add("inference.parallel_speedup", serialS/median(seconds(s.passWall)), "ratio")
	add("inference.pass_plain_s", plainS, "s")

	sess, err := f.sessionProbe(root, dir, round)
	if err != nil {
		return nil, err
	}
	add("inference.session_prime_s", sess.prime.Seconds(), "s")
	add("inference.session_delta_s", sess.delta.Seconds(), "s")
	add("inference.delta_active_share", sess.activeShare, "ratio")
	refreshes := 0
	for _, n := range s.refreshKinds {
		refreshes += n
	}
	add("inference.refresh_full_share", float64(s.refreshKinds[string(inference.RefreshFull)])/float64(refreshes), "ratio")

	// checkpoint: the WAL under /v1/mutate and the epochs under refresh/restart.
	wal, err := f.walProbe(root, dir, round[1])
	if err != nil {
		return nil, err
	}
	add("checkpoint.wal_append_us", wal.appendUs, "us")
	add("checkpoint.wal_append_sync_us", wal.appendSyncUs, "us")
	add("checkpoint.wal_truncate_ms", wal.truncateMs, "ms")
	add("checkpoint.epoch_write_ms", sess.epochWriteMs, "ms")
	add("checkpoint.epoch_mb", sess.epochMB, "MB")
	add("checkpoint.epoch_load_ms", sess.epochLoadMs, "ms")

	// serve: the floor, the tails behind the gated medians, and the counters.
	var lookups []time.Duration
	for i := 0; i < 60*reps; i++ {
		lat, err := f.nodeLookup(int32(rootRNG.Intn(f.g.NumNodes)), root)
		if err != nil {
			return nil, err
		}
		lookups = append(lookups, lat)
	}
	add("serve.node_lookup_us", median(millis(lookups))*1e3, "us")
	for _, t := range []struct {
		name string
		ds   []time.Duration
	}{{"query", s.query}, {"query16", s.query16}, {"mutate", s.mutate}} {
		add("serve."+t.name+"_p90_ms", percentile(millis(t.ds), 0.90), "ms")
		add("serve."+t.name+"_p99_ms", percentile(millis(t.ds), 0.99), "ms")
		add("serve."+t.name+"_n", float64(len(t.ds)), "count")
	}
	// Reads under writes: report-only, because how three runnable threads
	// share two cores differs from run to run by more than a bound can cover.
	add("serve.mixed_query16_p50_ms", median(millis(s.mixedQuery16)), "ms")
	add("serve.mixed_query16_n", float64(len(s.mixedQuery16)), "count")
	add("serve.window_share", float64(shippedBatchWindow)/1e6/median(millis(s.query)), "ratio")
	add("serve.batch_mean_jobs", float64(s.satJobs)/float64(s.satBatches), "count")
	nowal, err := f.noWALProbe(root)
	if err != nil {
		return nil, err
	}
	add("serve.mutate_nowal_p50_ms", nowal, "ms")
	add("serve.wal_replay_ms", median(s.walReplayMs), "ms")
	add("serve.restart_resumed_share", float64(s.resumed)/float64(s.restarts), "ratio")
	add("serve.shed_share", float64(s.served.Shed)/float64(s.served.Requests), "ratio")
	add("serve.degraded_share", float64(s.served.Degraded)/float64(s.served.Requests), "ratio")
	return ms, nil
}

// partitionSink keeps the partition probe's result live.
var partitionSink graph.Partitioner

// toDelta is the graph.Delta a /v1/mutate body stages.
func toDelta(req serve.MutateRequest) graph.Delta {
	var d graph.Delta
	for _, f := range req.Features {
		d.Features = append(d.Features, graph.FeatureUpdate{Node: f.Node, Features: f.Features})
	}
	for _, e := range req.AddEdges {
		d.AddEdges = append(d.AddEdges, graph.EdgeAdd{Src: e.Src, Dst: e.Dst})
	}
	for _, e := range req.RemoveEdges {
		d.RemoveEdges = append(d.RemoveEdges, graph.EdgeKey{Src: e.Src, Dst: e.Dst})
	}
	return d
}

type sessionProbe struct {
	prime, delta                       time.Duration
	activeShare                        float64
	epochWriteMs, epochMB, epochLoadMs float64
}

// sessionProbe drives a durable inference.Session directly, no HTTP: prime
// (NewSession + first Refresh), then one write round's deltas through
// Mutate + Refresh, then the persisted epoch's write and load cost.
func (f *fixture) sessionProbe(parent int, dir string, round []graph.Delta) (sessionProbe, error) {
	var p sessionProbe
	opts := refreshOptions
	opts.SessionDir = filepath.Join(dir, "probe-session")
	defer os.RemoveAll(opts.SessionDir)

	var sess *inference.Session
	var err error
	p.prime = f.tr.timed("inference.NewSession+Refresh", parent, func() {
		if sess, err = inference.NewSession(f.model, f.g, opts); err == nil {
			_, _, err = sess.Refresh()
		}
	})
	if err != nil {
		return p, fmt.Errorf("session prime: %w", err)
	}
	defer func() { sess.CloseDurable() }()
	if err := waitEpochs(sess, 1); err != nil {
		return p, err
	}

	var res *inference.Result
	p.delta = f.tr.timed("inference.Session.Mutate+Refresh", parent, func() {
		for _, d := range round {
			if _, err = sess.Mutate(d); err != nil {
				return
			}
		}
		res, _, err = sess.Refresh()
	})
	if err != nil {
		return p, fmt.Errorf("session delta: %w", err)
	}
	p.activeShare = float64(sum64(res.Stats.StepActive)) / float64(len(res.Stats.StepActive)*sess.Graph().NumNodes)
	if err := waitEpochs(sess, 2); err != nil {
		return p, err
	}
	ds := sess.DurableStats()
	p.epochWriteMs = float64(ds.LastWallNs) / 1e6
	p.epochMB = float64(ds.BytesWritten) / float64(ds.Epochs) / 1e6
	sess.CloseDurable()

	var loads []time.Duration
	for i := 0; i < 3; i++ {
		loads = append(loads, f.tr.timed("checkpoint.Store.Load", parent, func() {
			var st *checkpoint.Store
			if st, err = checkpoint.NewStore(opts.SessionDir); err == nil {
				var found bool
				if _, _, found, err = st.Load(); err == nil && !found {
					err = fmt.Errorf("no epoch found in %s", opts.SessionDir)
				}
			}
		}))
		if err != nil {
			return p, fmt.Errorf("epoch load: %w", err)
		}
	}
	p.epochLoadMs = median(millis(loads))
	return p, nil
}

// waitEpochs blocks until the session's background persister has written n
// epochs.
func waitEpochs(sess *inference.Session, n int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := sess.DurableStats()
		if st.Failures > 0 {
			return fmt.Errorf("session persist failed")
		}
		if st.Epochs >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session epoch %d never landed", n)
		}
		time.Sleep(time.Millisecond)
	}
}

type walProbe struct{ appendUs, appendSyncUs, truncateMs float64 }

// walProbe times checkpoint.WAL directly with a payload the size of one
// write-phase batch: appends at SyncNever (the serving configuration) and
// SyncAlways, and the truncation that follows a durable epoch.
func (f *fixture) walProbe(parent int, dir string, batch graph.Delta) (walProbe, error) {
	var p walProbe
	payload := checkpoint.AppendU32(nil, 1)
	for _, fu := range batch.Features {
		payload = checkpoint.AppendF32s(checkpoint.AppendU32(payload, uint32(fu.Node)), fu.Features)
	}
	for _, e := range batch.AddEdges {
		payload = checkpoint.AppendU32(checkpoint.AppendU32(payload, uint32(e.Src)), uint32(e.Dst))
	}
	appends := func(mode checkpoint.SyncMode, span string, n int) (float64, error) {
		wdir := filepath.Join(dir, "probe-wal")
		defer os.RemoveAll(wdir)
		w, _, err := checkpoint.OpenWAL(wdir, mode)
		if err != nil {
			return 0, err
		}
		defer w.Close()
		var ds []time.Duration
		for seq := uint64(1); seq <= uint64(n); seq++ {
			ds = append(ds, f.tr.timed(span, parent, func() { err = w.Append(seq, payload) }))
			if err != nil {
				return 0, err
			}
		}
		return median(millis(ds)) * 1e3, nil
	}
	var err error
	if p.appendUs, err = appends(checkpoint.SyncNever, "checkpoint.WAL.Append", 40*f.sc.ProbeReps); err != nil {
		return p, err
	}
	if p.appendSyncUs, err = appends(checkpoint.SyncAlways, "checkpoint.WAL.Append(sync)", 4*f.sc.ProbeReps); err != nil {
		return p, err
	}

	wdir := filepath.Join(dir, "probe-wal")
	defer os.RemoveAll(wdir)
	w, _, err := checkpoint.OpenWAL(wdir, checkpoint.SyncNever)
	if err != nil {
		return p, err
	}
	defer w.Close()
	var ds []time.Duration
	seq := uint64(0)
	for i := 0; i < 3; i++ {
		// 32 records the epoch covers plus 8 staged since: the suffix survives.
		for j := 0; j < f.sc.RoundBatches+f.sc.StagedAtRestart; j++ {
			seq++
			if err := w.Append(seq, payload); err != nil {
				return p, err
			}
		}
		through := seq - uint64(f.sc.StagedAtRestart)
		ds = append(ds, f.tr.timed("checkpoint.WAL.TruncateThrough", parent, func() { err = w.TruncateThrough(through) }))
		if err != nil {
			return p, err
		}
	}
	p.truncateMs = median(millis(ds))
	return p, nil
}

// noWALProbe sends the write-phase stream to a second server with no
// SessionDir: the difference to mutate_p50_ms is the WAL's share.
func (f *fixture) noWALProbe(parent int) (float64, error) {
	plain := *f
	plain.mut = newMutator(f.g, tensor.NewRNG(f.seed+7), f.w.HubRewrite)
	srv, err := serve.New(f.serveConfig(""))
	if err != nil {
		return 0, err
	}
	if err := srv.Start(); err != nil {
		return 0, err
	}
	plain.srv, plain.ts = srv, httptest.NewServer(srv.Handler())
	defer func() {
		plain.ts.Close()
		srv.Close()
	}()
	var lats []time.Duration
	for r := 0; r < 2; r++ {
		for i := 0; i < f.sc.RoundBatches; i++ {
			lat, err := plain.mutate(plain.mut.next(i == 0), parent)
			if err != nil {
				return 0, err
			}
			lats = append(lats, lat)
		}
		if err := srv.Refresh(); err != nil {
			return 0, err
		}
	}
	return median(millis(lats)), nil
}

func sum64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
