package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"burstmem/internal/sim"
)

// layerReport accumulates what the traced loop measured, summed over
// simulations.
type layerReport struct {
	selfNS    [numLayers]float64
	intervals [numLayers]uint64 // clock reads that closed an interval of each layer
	wallNS    float64           // traced simulation time the self times add up to

	cpuTicks           uint64
	l1Calls, l1Retries uint64
	l2Calls, l2Rejects uint64

	fsbHandoffs, fsbPoolStalls uint64

	ctrlTicks                  uint64 // controller cycles ticked, windows included
	submits, submitRejects     uint64
	writeSatCycles, ctrlCycles uint64

	memCycles, steps, inertSteps, skipped, windowed uint64

	mechNS        map[string]float64 // memctrl self time per mechanism
	mechIntervals map[string]uint64  // memctrl intervals per mechanism
	mechAccesses  map[string]uint64  // DRAM accesses per mechanism
	lateness      []uint64           // ctrl-mixed arrival lateness, cycles
}

func newLayerReport() *layerReport {
	return &layerReport{mechNS: map[string]float64{}, mechIntervals: map[string]uint64{}, mechAccesses: map[string]uint64{}}
}

func (r *layerReport) addMech(name string, ns float64, intervals, accesses uint64) {
	r.mechNS[name] += ns
	r.mechIntervals[name] += intervals
	r.mechAccesses[name] += accesses
}

func (r *layerReport) merge(o *layerReport) {
	for l := range r.selfNS {
		r.selfNS[l] += o.selfNS[l]
		r.intervals[l] += o.intervals[l]
	}
	r.wallNS += o.wallNS
	r.cpuTicks += o.cpuTicks
	r.l1Calls += o.l1Calls
	r.l1Retries += o.l1Retries
	r.l2Calls += o.l2Calls
	r.l2Rejects += o.l2Rejects
	r.fsbHandoffs += o.fsbHandoffs
	r.fsbPoolStalls += o.fsbPoolStalls
	r.ctrlTicks += o.ctrlTicks
	r.submits += o.submits
	r.submitRejects += o.submitRejects
	r.writeSatCycles += o.writeSatCycles
	r.ctrlCycles += o.ctrlCycles
	r.memCycles += o.memCycles
	r.steps += o.steps
	r.inertSteps += o.inertSteps
	r.skipped += o.skipped
	r.windowed += o.windowed
	for k, v := range o.mechNS {
		r.mechNS[k] += v
	}
	for k, v := range o.mechIntervals {
		r.mechIntervals[k] += v
	}
	for k, v := range o.mechAccesses {
		r.mechAccesses[k] += v
	}
	r.lateness = append(r.lateness, o.lateness...)
}

// ratio returns a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// crossings returns the number of clock reads the traced loop made.
func (r *layerReport) crossings() float64 {
	var n uint64
	for _, v := range r.intervals {
		n += v
	}
	return float64(n)
}

// compensated returns a self time with the tracing cost of its intervals
// removed: nsPerCrossing is the measured host cost of one boundary
// crossing (a clock read plus the shim's bookkeeping).
func compensated(ns float64, intervals uint64, nsPerCrossing float64) float64 {
	return max(0, ns-float64(intervals)*nsPerCrossing)
}

// metrics returns the per-layer metrics for passes traced passes. Times
// and counts are per pass; a layer a workload does not run reports 0.
// Each layer's self time has the tracing cost of its crossings removed;
// trace.self_s is what was removed, so the self times and trace.self_s
// add up to the traced simulation time.
func (r *layerReport) metrics(passes int, nsPerCrossing float64) map[string]metric {
	per := 1 / float64(passes)
	m := map[string]metric{}
	var self [numLayers]float64
	var overhead float64
	for l, name := range layerNames {
		self[l] = compensated(r.selfNS[l], r.intervals[l], nsPerCrossing)
		overhead += r.selfNS[l] - self[l]
		m[name+".self_s"] = metric{self[l] / 1e9 * per, "s"}
	}
	m["trace.self_s"] = metric{overhead / 1e9 * per, "s"}
	m["trace.ns_per_crossing"] = metric{nsPerCrossing, "ns"}
	m["cpu.ticks"] = metric{float64(r.cpuTicks) * per, "count"}
	m["cache.l1.calls"] = metric{float64(r.l1Calls) * per, "count"}
	m["cache.l1.retry_frac"] = metric{ratio(float64(r.l1Retries), float64(r.l1Calls)), "fraction"}
	m["cache.l2.backend_reject_frac"] = metric{ratio(float64(r.l2Rejects), float64(r.l2Calls)), "fraction"}
	m["bus.reject_frac"] = metric{ratio(float64(r.fsbPoolStalls), float64(r.fsbPoolStalls+r.fsbHandoffs)), "fraction"}
	m["memctrl.ns_per_tick"] = metric{ratio(self[lMemctrl], float64(r.ctrlTicks)), "ns"}
	for _, mech := range sim.MechanismNames() {
		ns := compensated(r.mechNS[mech], r.mechIntervals[mech], nsPerCrossing)
		m["memctrl.ns_per_access."+mech] = metric{ratio(ns, float64(r.mechAccesses[mech])), "ns"}
	}
	m["memctrl.submit_reject_frac"] = metric{ratio(float64(r.submitRejects), float64(r.submits)), "fraction"}
	m["memctrl.write_saturation"] = metric{ratio(float64(r.writeSatCycles), float64(r.ctrlCycles)), "fraction"}
	late := make([]float64, len(r.lateness))
	for i, v := range r.lateness {
		late[i] = float64(v)
	}
	m["gen.lateness_cycles_p50"] = metric{quantile(late, 0.50), "cycles"}
	m["gen.lateness_cycles_p99"] = metric{quantile(late, 0.99), "cycles"}
	m["sim.skipped_cycle_frac"] = metric{ratio(float64(r.skipped), float64(r.memCycles)), "fraction"}
	m["sim.window_cycle_frac"] = metric{ratio(float64(r.windowed), float64(r.memCycles)), "fraction"}
	m["sim.inert_step_frac"] = metric{ratio(float64(r.inertSteps), float64(r.steps)), "fraction"}
	return m
}

// wrapperShares maps the compensated self times onto the profile's
// package groups, for the cross-check against layer_share.
func (r *layerReport) wrapperShares(nsPerCrossing float64) map[string]float64 {
	var self [numLayers]float64
	var total float64
	for l := range self {
		self[l] = compensated(r.selfNS[l], r.intervals[l], nsPerCrossing)
		total += self[l]
	}
	out := map[string]float64{}
	for l, v := range self {
		out[layerGroup[l]] += ratio(v, total)
	}
	return out
}

// measureTraced is the --trace 1 run. It runs untraced passes, untraced
// passes under the CPU profiler, and traced passes, each for a third of
// the run length (at least one pass each), and reports the per-layer
// split. The traced passes must reproduce the untraced digests.
func measureTraced(b bench, opts options, ref reference, stderr io.Writer) (*result, error) {
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	budget := opts.seconds / 3
	var plain, traced []*passResult
	for start := time.Now(); len(plain) == 0 || time.Since(start).Seconds() < budget; {
		p, err := b.pass()
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
	}
	shares, err := profileShares(func() error {
		for start := time.Now(); time.Since(start).Seconds() < budget; {
			if _, err := b.pass(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	report := newLayerReport()
	for start := time.Now(); len(traced) == 0 || time.Since(start).Seconds() < budget; {
		p, err := b.tracedPass()
		if err != nil {
			return nil, err
		}
		traced = append(traced, p)
		if p.layers != nil {
			report.merge(p.layers)
		}
	}
	c := checkPasses(append(append([]*passResult{}, plain...), traced...), opts, ref)
	for _, f := range c.failures {
		fmt.Fprintln(stderr, "FAIL", f)
	}
	var plainWall, plainLoop, tracedWall, ins []float64
	for _, p := range plain {
		plainWall = append(plainWall, p.wall.Seconds())
		plainLoop = append(plainLoop, p.loop.Seconds())
		ins = append(ins, float64(p.instructions)/p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
	}
	// The traced loops' extra time over the untraced ones, spread over
	// the crossings that caused it.
	passes := float64(len(traced))
	extraNS := report.wallNS/passes - median(plainLoop)*1e9
	nsPerCrossing := max(0, ratio(extraNS, report.crossings()/passes))
	m := report.metrics(len(traced), nsPerCrossing)
	m["trace.overhead_frac"] = metric{median(tracedWall) / median(plainWall), "ratio"}
	workers := 1
	if fs, ok := b.(*fullSystem); ok {
		workers = max(1, fs.workers)
	}
	m["trace.self_coverage"] = metric{report.wallNS / 1e9 / (sum(tracedWall) * float64(workers)), "fraction"}
	m["cpu.sim_minstr_per_s"] = metric{median(ins) / 1e6, "Minstr/s"}
	for _, g := range shareGroups {
		m["layer_share."+g] = metric{shares[g], "fraction"}
	}
	wrapper := report.wrapperShares(nsPerCrossing)
	var worst float64
	worstGroup := ""
	for _, g := range layerGroupOrder {
		if d := math.Abs(wrapper[g] - groupShare(shares, g)); d > worst {
			worst, worstGroup = d, g
		}
	}
	m["layer_share.max_disagreement"] = metric{worst, "fraction"}
	if worst > disagreementLimit {
		fmt.Fprintf(stderr, "perfbench: wrapper-timed and profiled splits disagree by %.3f on %s (limit %.2f)\n",
			worst, worstGroup, disagreementLimit)
	}
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
