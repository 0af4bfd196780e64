package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"burstmem/internal/trace"
	"burstmem/internal/workload"
)

// The simulator's only parallelism is across runs: cmd/experiments runs
// whole grid points on a worker pool, one System per goroutine. That is
// sound only if Systems share no mutable state — no package-level caches,
// pools, counters or random sources. The tests here pin it: a run must be
// byte-identical to its serial reference whether it runs alone, beside
// concurrent copies of itself, or interleaved step by step with another
// System on the same goroutine.

// diffConfig is the differential-suite machine: small enough that the full
// mechanism x workload matrix stays fast, large enough that every mechanism
// schedules real bursts, preemptions, forwards and refreshes inside the
// window.
func diffConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 3_000
	cfg.Instructions = 10_000
	return cfg
}

// newTracedSystem builds a System with a tracer and interval metrics
// attached. It returns an error rather than failing the test so that it can
// run on goroutines other than the test's own.
func newTracedSystem(cfg Config, bench, mech string) (*System, *trace.Tracer, error) {
	prof, err := workload.ByName(bench)
	if err != nil {
		return nil, nil, err
	}
	factory, err := MechanismByName(mech)
	if err != nil {
		return nil, nil, err
	}
	sys, err := NewSystem(cfg, prof, factory)
	if err != nil {
		return nil, nil, err
	}
	tr := trace.New(1<<19, 256)
	sys.AttachTracer(tr)
	return sys, tr, nil
}

// tracedRun is the outcome of one full warmup+measurement simulation.
type tracedRun struct {
	res Result
	tr  *trace.Tracer
	err error
}

func runTracedErr(cfg Config, bench, mech string) tracedRun {
	sys, tr, err := newTracedSystem(cfg, bench, mech)
	if err != nil {
		return tracedRun{err: err}
	}
	res, err := runSystem(cfg, sys, bench)
	return tracedRun{res: res, tr: tr, err: err}
}

// runTraced runs one simulation on the test's goroutine.
func runTraced(t *testing.T, cfg Config, bench, mech string) (Result, *trace.Tracer) {
	t.Helper()
	r := runTracedErr(cfg, bench, mech)
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.res, r.tr
}

// runConcurrent runs n copies of the same simulation at once, one goroutine
// each, the way cmd/experiments runs grid points.
func runConcurrent(t *testing.T, n int, cfg Config, bench, mech string) []tracedRun {
	t.Helper()
	runs := make([]tracedRun, n)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i] = runTracedErr(cfg, bench, mech)
		}(i)
	}
	wg.Wait()
	for i, r := range runs {
		if r.err != nil {
			t.Fatalf("concurrent copy %d: %v", i, r.err)
		}
	}
	return runs
}

// requireIdentical asserts two runs are byte-identical: the full Result
// (stats, histograms, power, substructure counters), the complete trace
// event stream, and the interval metrics time series.
func requireIdentical(t *testing.T, label string, refRes, gotRes Result, refTr, gotTr *trace.Tracer) {
	t.Helper()
	if !reflect.DeepEqual(refRes, gotRes) {
		t.Errorf("%s: Result diverged from serial reference:\nserial: %+v\ngot:    %+v", label, refRes, gotRes)
	}
	re, ge := refTr.Events(), gotTr.Events()
	if len(re) != len(ge) {
		t.Fatalf("%s: event counts differ: serial %d vs %d", label, len(re), len(ge))
	}
	for i := range re {
		if re[i] != ge[i] {
			t.Fatalf("%s: event %d differs:\nserial %+v\ngot    %+v", label, i, re[i], ge[i])
		}
	}
	for k := trace.Kind(0); k < trace.EvSchedPick+1; k++ {
		if refTr.Count(k) != gotTr.Count(k) {
			t.Errorf("%s: lifetime count of %v differs: serial %d vs %d",
				label, k, refTr.Count(k), gotTr.Count(k))
		}
	}
	ri, gi := refTr.Intervals(), gotTr.Intervals()
	if len(ri) != len(gi) {
		t.Fatalf("%s: interval counts differ: serial %d vs %d", label, len(ri), len(gi))
	}
	for i := range ri {
		if ri[i] != gi[i] {
			t.Fatalf("%s: interval %d differs:\nserial %+v\ngot    %+v", label, i, ri[i], gi[i])
		}
	}
}

// TestParallelEquivalence is the differential suite for run-level
// parallelism: every mechanism, on two SPEC trace workloads, run as two
// concurrent copies, must produce output byte-identical to a run made
// alone — the full Result (latency histograms included), the complete
// trace event stream, and the interval metrics. Any state shared between
// Systems shows up here as a divergence (and under -race as a data race).
func TestParallelEquivalence(t *testing.T) {
	workloads := []string{"swim", "mcf"}
	if testing.Short() {
		workloads = workloads[:1]
	}
	for _, bench := range workloads {
		for _, mech := range conservationMechanisms() {
			bench, mech := bench, mech
			t.Run(bench+"/"+mech, func(t *testing.T) {
				cfg := diffConfig()
				refRes, refTr := runTraced(t, cfg, bench, mech)
				for i, r := range runConcurrent(t, 2, cfg, bench, mech) {
					requireIdentical(t, fmt.Sprintf("%s/copy%d", mech, i), refRes, r.res, refTr, r.tr)
				}
			})
		}
	}
}

// TestParallelEquivalenceFourChannels repeats the check on a 4-channel
// machine with three concurrent copies, so more per-channel state is live
// at once than the default two-channel geometry gives.
func TestParallelEquivalenceFourChannels(t *testing.T) {
	cfg := diffConfig()
	cfg.Mem.Geometry.Channels = 4
	cfg.Mem.Geometry.Ranks = 2 // keep total capacity; spread it over channels
	for _, tc := range []struct{ bench, mech string }{
		{"swim", "Burst_TH"},
		{"mcf", "Intel_RP"},
	} {
		tc := tc
		t.Run(tc.bench+"/"+tc.mech, func(t *testing.T) {
			refRes, refTr := runTraced(t, cfg, tc.bench, tc.mech)
			for i, r := range runConcurrent(t, 3, cfg, tc.bench, tc.mech) {
				requireIdentical(t, fmt.Sprintf("%s/4ch/copy%d", tc.mech, i), refRes, r.res, refTr, r.tr)
			}
		})
	}
}

// TestParallelEquivalenceMetamorphic interleaves two Systems on one
// goroutine, handing the goroutine from one to the other at skip-window
// boundaries (between full memory cycles) after a varying number of steps,
// and still demands byte-identical output from both. Which run the host
// advances next is an execution detail, never a model input; this is the
// metamorphic relation that pins it. Unlike the concurrent tests it is
// deterministic, so a divergence reproduces exactly.
func TestParallelEquivalenceMetamorphic(t *testing.T) {
	const bench, mech = "swim", "Burst_TH"
	cfg := diffConfig()
	cfg.Mem.Geometry.Channels = 4
	cfg.Mem.Geometry.Ranks = 2
	refRes, refTr := runTraced(t, cfg, bench, mech)

	// runState is one System driven by the runSystem protocol, one step
	// (a memory cycle plus an optional skip) at a time.
	type runState struct {
		sys    *System
		tr     *trace.Tracer
		target uint64
		warmed bool
	}
	maxCycles := (cfg.WarmupInstructions+cfg.Instructions)*40 + 1_000_000
	var runs [2]*runState
	for i := range runs {
		sys, tr, err := newTracedSystem(cfg, bench, mech)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = &runState{sys: sys, tr: tr, target: cfg.WarmupInstructions + cfg.Instructions}
	}
	done := func(r *runState) bool { return r.sys.MinRetired() >= r.target }
	step := func(r *runState) {
		sys := r.sys
		if sys.MemCycle() >= maxCycles {
			t.Fatalf("metamorphic run exceeded %d cycles", maxCycles)
		}
		if !r.warmed && sys.MinRetired() >= cfg.WarmupInstructions {
			sys.ResetStats()
			r.target = sys.MinRetired() + cfg.Instructions
			r.warmed = true
		}
		sys.StepMemCycle()
		if m := sys.MinRetired(); m < r.target && (r.warmed || m < cfg.WarmupInstructions) {
			sys.TrySkip()
		}
	}

	chunks := []int{257, 31, 1, 1024, 97}
	switches := 0
	for cur := 0; !done(runs[0]) || !done(runs[1]); cur ^= 1 {
		r := runs[cur]
		for n := chunks[switches%len(chunks)]; n > 0 && !done(r); n-- {
			step(r)
		}
		switches++
	}
	if switches < 6 {
		t.Fatalf("only %d hand-overs happened; the metamorphic run is vacuous", switches)
	}
	for i, r := range runs {
		requireIdentical(t, fmt.Sprintf("metamorphic/run%d", i), refRes, r.sys.Collect(bench), refTr, r.tr)
	}
}
