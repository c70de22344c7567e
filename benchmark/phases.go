package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"inferturbo/internal/inference"
	"inferturbo/internal/serve"
	"inferturbo/internal/tensor"
)

// samples pools every lap's measurements for one workload.
type samples struct {
	passWall, passCPU []time.Duration
	passAllocMB       []float64
	query, query16    []time.Duration
	mixedQuery16      []time.Duration
	mutate, refresh   []time.Duration
	restart           []time.Duration
	satRates          []float64 // roots/s per scale.SatSlice
	walReplayMs       []float64
	calib             []time.Duration

	refreshKinds        map[string]int
	restarts, resumed   int
	satBatches, satJobs int64
	firstPass           *inference.Result
	passCRC             uint32
	attempted, failed   int
	failures            []string     // first few failure messages
	checkErrs           []string     // correctness-block failures
	served              servedCounts // summed over every server instance of the run
}

// servedCounts are the /v1/stats query counters the shed and degraded
// shares are taken from.
type servedCounts struct{ Requests, Shed, Degraded int64 }

func (c *servedCounts) add(st serve.Stats) {
	c.Requests += st.Requests
	c.Shed += st.Shed
	c.Degraded += st.Degraded
}

// fail counts one failed operation and keeps the first few reasons.
func (s *samples) fail(err error) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, err.Error())
	}
}

// check records a correctness-block failure.
func (s *samples) check(ok bool, format string, args ...any) {
	if !ok {
		s.checkErrs = append(s.checkErrs, fmt.Sprintf(format, args...))
	}
}

// runLaps runs the phase sequence three times, spreading each phase's
// samples over the whole run so a host burst of a few seconds touches at
// most a third of any metric's pool. budget is the measured time (-seconds).
func (f *fixture) runLaps(budget time.Duration, s *samples) error {
	s.refreshKinds = make(map[string]int)
	lapBudget := budget / laps
	s.calib = append(s.calib, calibrate())
	for lap := 0; lap < laps; lap++ {
		lid := f.tr.begin("bench.lap", -1, 0)
		start := time.Now()
		share := 0.0
		until := func(sh float64) time.Time {
			share += sh
			return start.Add(time.Duration(share * float64(lapBudget)))
		}
		f.phaseQuery("bench.query", 1, f.sc.Queries, until(lapShare.Query), lid, s, &s.query)
		f.phaseQuery("bench.query16", 16, f.sc.Query16, until(lapShare.Query16), lid, s, &s.query16)
		if err := f.phaseSat(lap, until(lapShare.Sat), lid, s); err != nil {
			return err
		}
		f.phaseWrite(until(lapShare.Write), lid, s)
		f.phaseMixed(until(lapShare.Mixed), lid, s)
		if err := f.phaseRestart(until(lapShare.Restart), lid, s); err != nil {
			return err
		}
		// The store the lap left behind must equal a from-scratch pass on its
		// graph; the check also lets the restart's background epoch land
		// before passes are timed.
		vid := f.tr.begin("bench.verify", lid, 0)
		f.verifyStore(s, fmt.Sprintf("lap %d", lap+1))
		f.tr.end(vid)
		// Passes come last and run to the lap's end, so they absorb whatever
		// the floor-bound phases before them left over or overran.
		f.phasePass(start.Add(lapBudget), lid, s)
		f.tr.end(lid)
		s.calib = append(s.calib, calibrate())
	}
	st, err := f.stats()
	if err != nil {
		return fmt.Errorf("final stats: %w", err)
	}
	s.served.add(st)
	return nil
}

// phasePass times inference.RunPregel with the workload's options: wall,
// process CPU (rusage) and allocated bytes per pass, a GC before each.
func (f *fixture) phasePass(deadline time.Time, parent int, s *samples) {
	pid := f.tr.begin("bench.pass", parent, 0)
	defer f.tr.end(pid)
	for n := 0; n < f.sc.Passes || time.Now().Before(deadline); n++ {
		runtime.GC()
		alloc0 := totalAlloc()
		cpu0 := cpuTime()
		var res *inference.Result
		var err error
		wall := f.tr.timed("inference.RunPregel", pid, func() {
			res, err = inference.RunPregel(f.model, f.g, f.w.Pass)
		})
		cpu := cpuTime() - cpu0
		alloc := totalAlloc() - alloc0
		s.attempted++
		if err != nil {
			s.fail(fmt.Errorf("pass: %w", err))
			continue
		}
		crc := logitsCRC(res.Logits)
		if s.firstPass == nil {
			s.firstPass, s.passCRC = res, crc
		} else if crc != s.passCRC {
			s.fail(fmt.Errorf("pass: logits CRC %08x differs from the first pass's %08x", crc, s.passCRC))
			continue
		}
		s.passWall = append(s.passWall, wall)
		s.passCPU = append(s.passCPU, cpu)
		s.passAllocMB = append(s.passAllocMB, float64(alloc)/(1<<20))
	}
}

// phaseQuery is one closed-loop client sending nRoots random roots per
// request: the next request leaves when the previous reply has arrived.
func (f *fixture) phaseQuery(name string, nRoots, floor int, deadline time.Time, parent int, s *samples, into *[]time.Duration) {
	pid := f.tr.begin(name, parent, 0)
	defer f.tr.end(pid)
	for n := 0; n < floor || time.Now().Before(deadline); n++ {
		lat, err := f.query(f.pickRoots(f.roots, nRoots), pid, 0)
		s.attempted++
		if err != nil {
			s.fail(err)
			continue
		}
		*into = append(*into, lat)
	}
}

// phaseSat saturates the server with nproc closed-loop clients sending
// 16-root requests and records roots/s per slice.
func (f *fixture) phaseSat(lap int, deadline time.Time, parent int, s *samples) error {
	pid := f.tr.begin("bench.sat", parent, 0)
	defer f.tr.end(pid)
	slices := int(time.Until(deadline) / f.sc.SatSlice)
	if slices < f.sc.SatSlices {
		slices = f.sc.SatSlices
	}
	before, err := f.stats()
	if err != nil {
		return fmt.Errorf("sat: %w", err)
	}
	// nproc clients, but never more than half the server's default admission
	// queue (64): the benchmark measures saturation, not shedding.
	clients := min(runtime.NumCPU(), 32)
	start := time.Now()
	stop := start.Add(time.Duration(slices) * f.sc.SatSlice)
	// Each client logs when its requests left and when the reply arrived.
	type reply struct {
		sent, at time.Duration
		err      error
	}
	results := make([][]reply, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(f.seed + 1000 + int64(lap*64+c))
			for time.Now().Before(stop) {
				sent := time.Since(start)
				_, err := f.query(f.pickRoots(rng, 16), pid, c+1)
				results[c] = append(results[c], reply{sent, time.Since(start), err})
			}
		}(c)
	}
	wg.Wait()
	// A request's 16 roots are credited to the slices it was in flight in,
	// in proportion to the time spent in each: counting whole replies per
	// slice would quantise the rate to one request (3% at 30 per slice).
	roots := make([]float64, slices)
	for _, rs := range results {
		for _, r := range rs {
			s.attempted++
			if r.err != nil {
				s.fail(r.err)
				continue
			}
			for i := int(r.sent / f.sc.SatSlice); i < slices && time.Duration(i)*f.sc.SatSlice < r.at; i++ {
				lo, hi := max(r.sent, time.Duration(i)*f.sc.SatSlice), min(r.at, time.Duration(i+1)*f.sc.SatSlice)
				roots[i] += 16 * float64(hi-lo) / float64(r.at-r.sent)
			}
		}
	}
	for _, n := range roots {
		s.satRates = append(s.satRates, n/f.sc.SatSlice.Seconds())
	}
	after, err := f.stats()
	if err != nil {
		return fmt.Errorf("sat: %w", err)
	}
	s.satBatches += after.Batches - before.Batches
	s.satJobs += after.BatchedJobs - before.BatchedJobs
	return nil
}

// writeRound stages RoundBatches /v1/mutate batches back to back, then kicks
// a refresh and waits for the new epoch. Latencies go to mutate / refresh
// when non-nil (the mixed phase's writer is load, not a sample).
func (f *fixture) writeRound(parent int, s *samples, mutate, refresh *[]time.Duration) {
	for i := 0; i < f.sc.RoundBatches; i++ {
		lat, err := f.mutate(f.mut.next(i == 0), parent)
		s.attempted++
		if err != nil {
			s.fail(err)
			continue
		}
		if mutate != nil {
			*mutate = append(*mutate, lat)
		}
	}
	runtime.GC() // as before a pass: every refresh starts from a collected heap
	lat, kind, err := f.refresh(parent)
	s.attempted++
	if err != nil {
		s.fail(err)
		return
	}
	s.refreshKinds[kind]++
	if kind != string(f.w.WantRefresh) {
		s.fail(fmt.Errorf("refresh took the %s path, workload %s expects %s", kind, f.w.Name, f.w.WantRefresh))
		return
	}
	if refresh != nil {
		*refresh = append(*refresh, lat)
	}
}

func (f *fixture) phaseWrite(deadline time.Time, parent int, s *samples) {
	pid := f.tr.begin("bench.write", parent, 0)
	defer f.tr.end(pid)
	for first := true; first || time.Now().Before(deadline); first = false {
		f.writeRound(pid, s, &s.mutate, &s.refresh)
	}
}

// phaseMixed runs the query16 client while one writer runs write rounds.
func (f *fixture) phaseMixed(deadline time.Time, parent int, s *samples) {
	pid := f.tr.begin("bench.mixed", parent, 0)
	defer f.tr.end(pid)
	stop := make(chan struct{})
	var lats []time.Duration
	var errs []error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			lat, err := f.query(f.pickRoots(f.roots, 16), pid, 1)
			if err != nil {
				errs = append(errs, err)
			} else {
				lats = append(lats, lat)
			}
		}
	}()
	for first := true; first || time.Now().Before(deadline); first = false {
		f.writeRound(pid, s, nil, nil)
	}
	close(stop)
	wg.Wait()
	s.attempted += len(lats) + len(errs)
	for _, err := range errs {
		s.fail(err)
	}
	s.mixedQuery16 = append(s.mixedQuery16, lats...)
}

// phaseRestart stages un-refreshed batches, closes the server, and times
// serve.New + Start on the same SessionDir until Ready. Every staged batch
// must come back: nothing lost at close, session resumed, WAL replayed.
func (f *fixture) phaseRestart(deadline time.Time, parent int, s *samples) error {
	pid := f.tr.begin("bench.restart", parent, 0)
	defer f.tr.end(pid)
	for first := true; first || time.Now().Before(deadline); first = false {
		for i := 0; i < f.sc.StagedAtRestart; i++ {
			s.attempted++
			if _, err := f.mutate(f.mut.next(i == 0), pid); err != nil {
				s.fail(err)
			}
		}
		old := f.srv
		if st, err := f.stats(); err != nil {
			s.fail(err)
		} else {
			s.served.add(st)
		}
		f.tr.timed("serve.Close", pid, f.stopServer)
		lost := old.Metrics().MutationsLost

		s.attempted++
		s.restarts++
		runtime.GC()
		var err error
		lat := f.tr.timed("bench.restart_ready", pid, func() { err = f.startServer(pid) })
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		st, err := f.stats()
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if st.SessionResumed {
			s.resumed++
		}
		s.walReplayMs = append(s.walReplayMs, st.LastReplayMs)
		if lost != 0 || !st.SessionResumed || st.WALReplayed < int64(f.sc.StagedAtRestart) || st.MutationsLost != 0 {
			s.fail(fmt.Errorf("restart: mutations_lost=%d (at close %d) session_resumed=%v wal_replayed=%d, want 0/0/true/>=%d",
				st.MutationsLost, lost, st.SessionResumed, st.WALReplayed, f.sc.StagedAtRestart))
			continue
		}
		s.restart = append(s.restart, lat)
	}
	return nil
}

// pickRoots draws the roots of one request. A single root is uniform over the
// nodes. A multi-root request takes one node from each of n equal-sized
// strata of the nodes ordered by in-degree: every node is still equally
// likely, but each request carries the same mix of cheap and expensive
// neighbourhoods, so request cost — which on a power-law graph spans 20x
// between p10 and p90 for unstratified draws — stops being a lottery and the
// p50 of a few hundred requests repeats. The strata are disjoint, so the
// roots are distinct.
func (f *fixture) pickRoots(rng *tensor.RNG, n int) []int32 {
	nodes := len(f.byInDegree)
	roots := make([]int32, n)
	for i := range roots {
		lo, hi := i*nodes/n, (i+1)*nodes/n
		roots[i] = f.byInDegree[lo+rng.Intn(hi-lo)]
	}
	return roots
}

// endToEnd reduces the pooled samples to the eleven gated metrics:
// repeated operations by their median, latencies by the pooled p50,
// throughput by the median slice.
func (s *samples) endToEnd(parts []setupTimes) []metric {
	setups := make([]time.Duration, len(parts))
	for i, p := range parts {
		setups[i] = p.Total
	}
	return []metric{
		{"setup_s", median(seconds(setups)), "s"},
		{"pass_s", median(seconds(s.passWall)), "s"},
		{"pass_cpu_s", median(seconds(s.passCPU)), "s"},
		{"pass_alloc_mb", median(s.passAllocMB), "MB"},
		{"query_p50_ms", median(millis(s.query)), "ms"},
		{"query16_p50_ms", median(millis(s.query16)), "ms"},
		{"query_sat_rps", median(s.satRates), "1/s"},
		{"mutate_p50_ms", median(millis(s.mutate)), "ms"},
		{"refresh_s", median(seconds(s.refresh)), "s"},
		{"restart_ready_s", median(seconds(s.restart)), "s"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
}

// metric is one named value with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}
