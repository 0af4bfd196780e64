package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"burstmem/internal/addrmap"
	"burstmem/internal/memctrl"
	"burstmem/internal/sim"
	"burstmem/internal/xrand"
)

// The ctrl-mixed arrival process: an open loop of line reads and writes,
// Poisson within alternating on and off phases of fixed length. In an on
// phase arrivals come at the channels' peak rate (two channels, one line
// per four cycles each), so queues build; the off phases let them drain.
// Writes are frequent enough that the 64-entry write queue fills past
// Burst_TH's threshold of 52, and some reads fetch a line written just
// before, which mechanisms that forward from the write queue serve there.
const (
	onRate      = 0.50 // arrivals per memory cycle in an on phase
	offRate     = 0.10 // arrivals per memory cycle in an off phase
	phaseCycles = 2000 // length of each phase, memory cycles
	writeShare  = 0.45 // share of arrivals that are writes
	seqShare    = 0.60 // share of arrivals that continue a sequential stream
	seqStreams  = 8    // concurrent sequential streams
	rawShare    = 0.05 // share of reads that fetch one of the last rawWindow lines written
	rawWindow   = 64
)

// arrival is one access of the stream: when it is due and what it is.
type arrival struct {
	due  uint64
	kind memctrl.Kind
	addr uint64
}

// genStream generates n arrivals from the seed.
func genStream(seed int64, n int, geo addrmap.Geometry) []arrival {
	rng := xrand.New(uint64(seed)*0x9E3779B97F4A7C15 + 0xC7A1)
	line := uint64(geo.LineBytes)
	lines := geo.TotalBytes() / line
	var pos [seqStreams]uint64
	for i := range pos {
		pos[i] = rng.Uint64n(lines) * line
	}
	out := make([]arrival, n)
	var written [rawWindow]uint64
	nWritten := 0
	var t float64
	for i := range out {
		rate := offRate
		if int(t/phaseCycles)%2 == 0 {
			rate = onRate
		}
		t += expGap(rng, rate)
		a := arrival{due: uint64(t) + 1, kind: memctrl.KindRead}
		if rng.Bool(writeShare) {
			a.kind = memctrl.KindWrite
		}
		switch {
		case a.kind == memctrl.KindRead && nWritten > 0 && rng.Bool(rawShare):
			a.addr = written[rng.Intn(min(nWritten, rawWindow))]
		case rng.Bool(seqShare):
			s := rng.Intn(seqStreams)
			a.addr = pos[s]
			pos[s] = (pos[s] + line) % (lines * line)
		default:
			a.addr = rng.Uint64n(lines) * line
		}
		if a.kind == memctrl.KindWrite {
			written[nWritten%rawWindow] = a.addr
			nWritten++
		}
		out[i] = a
	}
	return out
}

// expGap draws an exponential inter-arrival gap for the given rate.
func expGap(rng *xrand.RNG, rate float64) float64 {
	return -math.Log(1-rng.Float64()) / rate
}

// ctrlMixed drives memctrl.Controller alone with the generated stream,
// under each mechanism in turn.
type ctrlMixed struct {
	seed     int64
	accesses int
	mechs    []string

	cfg       memctrl.Config
	stream    []arrival
	factories []memctrl.Factory
}

func (c *ctrlMixed) setup() error {
	c.cfg = memctrl.DefaultConfig()
	c.stream = genStream(c.seed, c.accesses, c.cfg.Geometry)
	c.factories = c.factories[:0]
	for _, name := range c.mechs {
		f, err := sim.MechanismByName(name)
		if err != nil {
			return err
		}
		if _, err := memctrl.New(c.cfg, f); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		c.factories = append(c.factories, f)
	}
	return nil
}

func (c *ctrlMixed) pass() (*passResult, error) { return c.runPass(false) }

func (c *ctrlMixed) tracedPass() (*passResult, error) { return c.runPass(true) }

func (c *ctrlMixed) runPass(traced bool) (*passResult, error) {
	if c.stream == nil {
		if err := c.setup(); err != nil {
			return nil, err
		}
	}
	p := &passResult{digests: map[string]string{}, attempted: len(c.mechs)}
	if traced {
		p.layers = newLayerReport()
	}
	t0 := time.Now()
	for i, name := range c.mechs {
		o := c.runMech(i, traced)
		p.runs = append(p.runs, o.dur)
		p.loop += o.loop
		p.memCycles += o.memCycles
		p.dramAccesses += o.dramAccesses
		if o.failure != "" {
			p.failures = append(p.failures, name+": "+o.failure)
			continue
		}
		p.digests[name] = o.digest
		if o.layers != nil {
			p.layers.merge(o.layers)
		}
	}
	p.wall = time.Since(t0)
	return p, nil
}

// runMech feeds the whole stream to a fresh controller running mechanism
// i, then ticks until it drains. A rejected Submit holds that arrival (and
// every later one) until the controller accepts it; the delay is the
// arrival's lateness. Tick comes before Submit in each cycle, as in
// sim.System.StepMemCycle.
func (c *ctrlMixed) runMech(i int, traced bool) jobOut {
	t0 := time.Now()
	ctrl, err := memctrl.New(c.cfg, c.factories[i])
	if err != nil {
		return jobOut{failure: err.Error()}
	}
	var t *tracer
	loopStart := time.Now()
	if traced {
		t = newTracer(lGen)
	}
	n := len(c.stream)
	completions := make([]uint8, n) // per access ID
	var stray uint64
	onComplete := func(a *memctrl.Access, _ uint64) {
		if a.ID < uint64(n) {
			completions[a.ID]++
		} else {
			stray++
		}
	}
	late := make([]uint64, n)
	limit := c.stream[n-1].due + 100*uint64(n) + 1_000_000
	var now, submits, rejects uint64
	next := 0
	for next < n || !ctrl.Drained() {
		now++
		if now > limit {
			return jobOut{failure: fmt.Sprintf("not drained after %d cycles", now)}
		}
		if t != nil {
			t.enter(lMemctrl)
		}
		ctrl.Tick(now)
		if t != nil {
			t.exit()
		}
		for next < n && c.stream[next].due <= now {
			a := &c.stream[next]
			if t != nil {
				t.enter(lMemctrl)
			}
			acc, ok := ctrl.Submit(a.kind, a.addr, onComplete)
			if t != nil {
				t.exit()
			}
			submits++
			if !ok {
				rejects++
				break
			}
			if acc.ID != uint64(next) {
				return jobOut{failure: fmt.Sprintf("access %d got ID %d", next, acc.ID)}
			}
			late[next] = now - a.due
			next++
		}
	}
	o := jobOut{dur: time.Since(t0), loop: time.Since(loopStart), memCycles: now}
	if t != nil {
		r := newLayerReport()
		r.selfNS = t.finish(o.loop)
		r.intervals = t.intervals
		r.wallNS = float64(o.loop.Nanoseconds())
		r.ctrlTicks = now
		r.memCycles = now
		r.submits, r.submitRejects = submits, rejects
		r.lateness = late
		o.layers = r
	}
	for ch := 0; ch < ctrl.Channels(); ch++ {
		st := ctrl.Channel(ch).Stats
		o.dramAccesses += st.Reads + st.Writes
	}
	for id, k := range completions {
		if k != 1 {
			o.failure = fmt.Sprintf("access %d completed %d times", id, k)
			return o
		}
	}
	if stray > 0 {
		o.failure = fmt.Sprintf("%d completions for accesses never submitted", stray)
		return o
	}
	st := &ctrl.Stats
	hit, empty, conflict := ctrl.RowOutcomeRates()
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d submits=%d rejects=%d dram=%d reads=%d writes=%d fwd=%d rd=%d/%v wr=%d/%v rdp=%d,%d,%d wsat=%d pool=%d rows=%v,%v,%v late=%v",
		now, submits, rejects, o.dramAccesses, st.AcceptedReads, st.AcceptedWrites, st.ForwardedReads,
		st.ReadLatency.N(), st.ReadLatency.Sum(), st.WriteLatency.N(), st.WriteLatency.Sum(),
		st.ReadLatencyHist.Percentile(0.5), st.ReadLatencyHist.Percentile(0.95), st.ReadLatencyHist.Percentile(0.99),
		st.WriteSatCycles, st.PoolFullCycles, hit, empty, conflict, lateSummary(late))
	o.digest = hex.EncodeToString(h.Sum(nil)[:12])
	if o.layers != nil {
		o.layers.writeSatCycles, o.layers.ctrlCycles = st.WriteSatCycles, st.Cycles
		o.layers.addMech(c.mechs[i], o.layers.selfNS[lMemctrl], o.layers.intervals[lMemctrl], o.dramAccesses)
	}
	return o
}

// lateSummary condenses the lateness of every arrival for the digest.
func lateSummary(late []uint64) string {
	var sum, worst uint64
	for _, v := range late {
		sum += v
		worst = max(worst, v)
	}
	return fmt.Sprintf("%d/%d", sum, worst)
}
