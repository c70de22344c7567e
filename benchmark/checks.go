package main

import (
	"bytes"
	"time"

	"inferturbo/internal/inference"
	"inferturbo/internal/tensor"
)

// verifyStore checks that what the server answers from equals a from-scratch
// pass: GET /v1/logits must be byte-identical to inference.RunPregel on the
// store's own graph. Called after the last restart of every lap, so it
// covers every refresh and every WAL replay that led there.
func (f *fixture) verifyStore(s *samples, when string) {
	got, err := f.logits()
	if err != nil {
		s.check(false, "%s: %v", when, err)
		return
	}
	ref, err := inference.RunPregel(f.model, f.srv.Store().Graph, inference.Options{NumWorkers: 8, Parallel: true})
	if err != nil {
		s.check(false, "%s: reference pass: %v", when, err)
		return
	}
	s.check(bytes.Equal(got, logitsBytes(ref.Logits)),
		"%s: /v1/logits differs from a from-scratch RunPregel on the store's graph", when)
}

// passChecks is the once-per-workload part of the correctness block: the
// batch pass agrees with the single-process reference forward, and the
// workload's skew strategy actually fired. It returns the reference's wall
// time, which the per-layer run reports as the floor under pass_s.
func (f *fixture) passChecks(s *samples) time.Duration {
	if s.firstPass == nil {
		s.check(false, "no pass succeeded")
		return 0
	}
	var ref *tensor.Matrix
	d := f.tr.timed("inference.ReferenceForward", -1, func() { ref = inference.ReferenceForward(f.model, f.g) })
	diff := s.firstPass.Logits.MaxAbsDiff(ref)
	s.check(diff <= 1e-4, "pass logits differ from ReferenceForward by %g (> 1e-4)", diff)
	what, fired := f.w.Fired(s.firstPass.Stats)
	s.check(fired, "strategy did not fire on %s: %s", f.w.Name, what)
	return d
}
