package main

import (
	"fmt"
	"time"
	"unsafe"

	"burstmem/internal/cache"
	"burstmem/internal/cpu"
	"burstmem/internal/eventq"
	"burstmem/internal/sim"
	"burstmem/internal/workload"
)

// layer is one of the repository's modules as the traced loop splits
// host time between them.
type layer uint8

const (
	lSim      layer = iota // the step/skip/window loop and its queries
	lGen                   // ctrl-mixed's own arrival generator and loop
	lWorkload              // instruction generators
	lCPU
	lL1 // L1D cache
	lL2 // L2 cache
	lBus
	lMemctrl // controller with core, sched, dram, addrmap, eventq beneath
	numLayers
)

var layerNames = [numLayers]string{"sim", "gen", "workload", "cpu", "cache.l1", "cache.l2", "bus", "memctrl"}

// tracer charges host time to the layer on top of its stack. Every
// boundary crossing reads the clock once, so the self times of all layers
// add up to the traced interval exactly.
type tracer struct {
	start, last int64
	stack       []layer
	self        [numLayers]int64  // clock ticks
	intervals   [numLayers]uint64 // clock reads that closed an interval of each layer
}

func newTracer(root layer) *tracer {
	t := &tracer{stack: make([]layer, 1, 32)}
	t.stack[0] = root
	t.restart()
	return t
}

// restart opens a new traced interval, discarding what was charged so far.
func (t *tracer) restart() {
	t.self = [numLayers]int64{}
	t.intervals = [numLayers]uint64{}
	t.start = ticks()
	t.last = t.start
}

func (t *tracer) charge() {
	now := ticks()
	top := t.stack[len(t.stack)-1]
	t.self[top] += now - t.last
	t.intervals[top]++
	t.last = now
}

// enter starts a call into layer l.
func (t *tracer) enter(l layer) {
	t.charge()
	t.stack = append(t.stack, l)
}

// exit returns from the innermost call.
func (t *tracer) exit() {
	t.charge()
	t.stack = t.stack[:len(t.stack)-1]
}

// switchTo replaces the innermost call by one into layer l: an exit and an
// enter for the price of one clock read.
func (t *tracer) switchTo(l layer) {
	t.charge()
	t.stack[len(t.stack)-1] = l
}

// finish closes the traced interval and returns the self times in host
// nanoseconds, scaled so that they sum to wall.
func (t *tracer) finish(wall time.Duration) [numLayers]float64 {
	t.charge()
	var out [numLayers]float64
	total := t.last - t.start
	if total <= 0 {
		return out
	}
	scale := float64(wall.Nanoseconds()) / float64(total)
	for l, v := range t.self {
		out[l] = float64(v) * scale
	}
	return out
}

// callbacks wraps the completion callbacks a layer hands to the layer
// below it, so that their run time is charged back to their owner. The
// simulator builds its callbacks once (per MSHR, ROB slot and store-buffer
// slot) and reuses them, so wrappers are cached by closure identity; the
// map keeps each original alive, so an identity is never reused. A
// direct-mapped front keeps the lookup, paid on every L1 probe, cheap.
type callbacks struct {
	t       *tracer
	owner   layer
	wrapped map[unsafe.Pointer]func()
	recent  [512]struct {
		key unsafe.Pointer
		f   func()
	}
}

func newCallbacks(t *tracer, owner layer) *callbacks {
	return &callbacks{t: t, owner: owner, wrapped: map[unsafe.Pointer]func(){}}
}

func (c *callbacks) wrap(done func()) func() {
	if done == nil {
		return nil
	}
	key := *(*unsafe.Pointer)(unsafe.Pointer(&done))
	slot := &c.recent[(uintptr(key)>>4^uintptr(key)>>13)%uintptr(len(c.recent))]
	if slot.key == key {
		return slot.f
	}
	f, ok := c.wrapped[key]
	if !ok {
		f = c.newWrapper(done)
		c.wrapped[key] = f
	}
	slot.key, slot.f = key, f
	return f
}

// newWrapper is split from wrap so that only a first sighting moves done
// to the heap.
func (c *callbacks) newWrapper(done func()) func() {
	return func() {
		c.t.enter(c.owner)
		done()
		c.t.exit()
	}
}

// genShim times workload.Generator calls made by the CPU.
type genShim struct {
	t   *tracer
	gen workload.Generator
}

func (g *genShim) Name() string { return g.gen.Name() }

func (g *genShim) Next() workload.Op {
	g.t.enter(lWorkload)
	op := g.gen.Next()
	g.t.exit()
	return op
}

// memShim times the CPU's calls into the L1D. It forwards the optional
// load and allocation-probe ports the CPU looks for, so the CPU takes the
// same path as with the bare cache.
type memShim struct {
	t       *tracer
	cb      *callbacks
	l1      *cache.Cache
	calls   uint64
	retries uint64 // Blocked or Parked: the CPU must probe again
}

func (m *memShim) count(r cache.Result) {
	m.calls++
	if r == cache.Blocked || r == cache.Parked {
		m.retries++
	}
}

func (m *memShim) Access(addr uint64, isWrite bool, done func()) cache.Result {
	d := m.cb.wrap(done)
	m.t.enter(lL1)
	r := m.l1.Access(addr, isWrite, d)
	m.t.exit()
	m.count(r)
	return r
}

func (m *memShim) AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result {
	d := m.cb.wrap(done)
	m.t.enter(lL1)
	r := m.l1.AccessLoad(addr, mayAllocate, d)
	m.t.exit()
	m.count(r)
	return r
}

func (m *memShim) WouldAllocate(addr uint64) bool {
	m.t.enter(lL1)
	r := m.l1.WouldAllocate(addr)
	m.t.exit()
	m.calls++
	return r
}

// backendShim times a cache's calls into the level below it.
type backendShim struct {
	t       *tracer
	callee  layer
	cb      *callbacks
	next    cache.Backend
	calls   uint64
	rejects uint64
}

func (b *backendShim) ReadLine(addr uint64, done func()) bool {
	d := b.cb.wrap(done)
	b.t.enter(b.callee)
	ok := b.next.ReadLine(addr, d)
	b.t.exit()
	b.count(ok)
	return ok
}

func (b *backendShim) WriteLine(addr uint64) bool {
	b.t.enter(b.callee)
	ok := b.next.WriteLine(addr)
	b.t.exit()
	b.count(ok)
	return ok
}

func (b *backendShim) count(ok bool) {
	b.calls++
	if !ok {
		b.rejects++
	}
}

// minWindowCycles mirrors internal/sim: the shortest span the loop batches
// into one TickWindow call.
const minWindowCycles = 4

// tracedMachine is a single-core machine assembled from the public
// constructors with every layer boundary shimmed, driven by a copy of
// sim.System's step/skip/window loop that times each top-level call. Its
// simulated statistics must equal sim.RunSystem's; the traced pass fails
// otherwise, so a change to the simulator's loop that this copy misses
// shows up as a failed check, not as a silently wrong split.
type tracedMachine struct {
	sys      *sim.System
	t        *tracer
	mem      *memShim
	l1Down   *backendShim
	l2Down   *backendShim
	wheel    *eventq.Wheel
	ratio    uint64
	memCycle uint64
	winStart uint64 // memCycle when the measurement window opened

	cpuTicks, ctrlTicks uint64
	inertSteps, steps   uint64
	skipped, windowed   uint64
	warmupDRAM          uint64
}

// newTracedMachine builds the machine sim.NewSystem would, then replaces
// its front end (generator, CPU, L1D, L2) with copies wired through shims.
// The controller and FSB are sim.NewSystem's own: bus.New takes the
// concrete controller, so that boundary has no seam to shim.
func newTracedMachine(cfg sim.Config, j job) (*tracedMachine, error) {
	if cfg.Cores > 1 {
		return nil, fmt.Errorf("traced loop models one core, config has %d", cfg.Cores)
	}
	sys, err := sim.NewSystem(cfg, j.prof, j.factory)
	if err != nil {
		return nil, err
	}
	gen, err := workload.New(j.prof)
	if err != nil {
		return nil, err
	}
	t := newTracer(lSim)
	m := &tracedMachine{sys: sys, t: t, wheel: eventq.NewWheel(2), ratio: uint64(sys.Cfg.CPUCyclesPerMemCycle)}
	m.l2Down = &backendShim{t: t, callee: lBus, cb: newCallbacks(t, lL2), next: sys.FSB}
	l2, err := cache.New(sys.Cfg.L2, m.l2Down)
	if err != nil {
		return nil, err
	}
	m.l1Down = &backendShim{t: t, callee: lL2, cb: newCallbacks(t, lL1), next: l2.AsBackend()}
	l1, err := cache.New(sys.Cfg.L1D, m.l1Down)
	if err != nil {
		return nil, err
	}
	m.mem = &memShim{t: t, cb: newCallbacks(t, lCPU), l1: l1}
	core, err := cpu.New(sys.Cfg.CPU, &genShim{t: t, gen: gen}, m.mem)
	if err != nil {
		return nil, err
	}
	sys.L2, sys.L1D, sys.CPU = l2, l1, core
	sys.L1Ds, sys.CPUs = []*cache.Cache{l1}, []*cpu.CPU{core}
	return m, nil
}

// run mirrors sim.RunSystem: warmup, statistics reset, measurement window.
func (m *tracedMachine) run(cfg sim.Config, name string) (sim.Result, error) {
	s := m.sys
	maxCycles := cfg.MaxMemCycles
	if maxCycles == 0 {
		maxCycles = (cfg.WarmupInstructions+cfg.Instructions)*40 + 1_000_000
	}
	target := cfg.WarmupInstructions + cfg.Instructions
	warmed := cfg.WarmupInstructions == 0
	for s.MinRetired() < target {
		if m.memCycle >= maxCycles {
			return sim.Result{}, fmt.Errorf("traced %s/%s exceeded %d memory cycles", s.Ctrl.MechanismName(), name, maxCycles)
		}
		if !warmed && s.MinRetired() >= cfg.WarmupInstructions {
			for i := 0; i < s.Ctrl.Channels(); i++ {
				st := s.Ctrl.Channel(i).Stats
				m.warmupDRAM += st.Reads + st.Writes
			}
			m.winStart = m.memCycle
			s.ResetStats()
			target = s.MinRetired() + cfg.Instructions
			warmed = true
		}
		m.step()
		if r := s.MinRetired(); r < target && (warmed || r < cfg.WarmupInstructions) {
			m.trySkip()
		}
	}
	res := s.Collect(name)
	// Collect reads the clock sim.System keeps privately; this loop kept
	// its own.
	res.MemCycles = m.memCycle - m.winStart
	return res, nil
}

// step mirrors sim.System.StepMemCycle.
func (m *tracedMachine) step() {
	s, t := m.sys, m.t
	m.memCycle++
	m.steps++
	t.enter(lMemctrl)
	s.Ctrl.Tick(m.memCycle)
	t.switchTo(lBus)
	s.FSB.Tick(m.memCycle)
	t.exit()
	m.ctrlTicks++
	r := m.ratio
	if s.L2.InertFor(r) && s.L1D.InertFor(r) && s.CPU.InertFor(r) {
		s.L2.SkipCycles(r)
		s.L1D.SkipCycles(r)
		s.CPU.SkipCycles(r)
		m.inertSteps++
		return
	}
	for i := uint64(0); i < r; i++ {
		t.enter(lL2)
		s.L2.Tick()
		t.switchTo(lL1)
		s.L1D.Tick()
		t.switchTo(lCPU)
		s.CPU.Tick()
		t.exit()
	}
	m.cpuTicks += r
}

// trySkip mirrors sim.System.TrySkip.
func (m *tracedMachine) trySkip() {
	s := m.sys
	if !s.L2.SkipEligible() || !s.L1D.SkipEligible() || !s.CPU.SkipEligible() {
		return
	}
	if m.wheel.NeedRebase(m.memCycle) {
		m.wheel.Rebase(m.memCycle)
	}
	m.wheel.Schedule(0, s.Ctrl.NextEventCycle(m.memCycle))
	m.wheel.Schedule(1, s.FSB.NextEventCycle(m.memCycle))
	next, ok := m.wheel.PeekMin()
	if !ok || next <= m.memCycle+1 {
		m.tryWindow()
		return
	}
	k := next - 1 - m.memCycle
	s.Ctrl.AccountSkipped(k)
	s.FSB.AccountSkipped(k)
	m.skipCPUDomain(k)
	m.memCycle += k
	m.skipped += k
}

// tryWindow mirrors sim.System.tryWindow.
func (m *tracedMachine) tryWindow() {
	s := m.sys
	from := m.memCycle + 1
	to := s.Ctrl.WindowBound(from)
	if fsbNext := s.FSB.NextEventCycle(m.memCycle); fsbNext < to {
		to = fsbNext
	}
	if to < from+minWindowCycles {
		return
	}
	m.t.enter(lMemctrl)
	s.Ctrl.TickWindow(from, to)
	m.t.exit()
	k := to - from
	s.FSB.AccountSkipped(k)
	m.skipCPUDomain(k)
	m.memCycle = to - 1
	m.windowed += k
	m.ctrlTicks += k
}

func (m *tracedMachine) skipCPUDomain(k uint64) {
	n := k * m.ratio
	m.sys.L2.SkipCycles(n)
	m.sys.L1D.SkipCycles(n)
	m.sys.CPU.SkipCycles(n)
}

// runTracedJob is one simulation through the traced loop.
func (f *fullSystem) runTracedJob(j job) jobOut {
	m, err := newTracedMachine(f.cfg, j)
	if err != nil {
		return jobOut{failure: err.Error()}
	}
	t0 := time.Now()
	m.t.restart()
	res, err := m.run(f.cfg, j.prof.Name)
	wall := time.Since(t0)
	if err != nil {
		return jobOut{dur: wall, failure: err.Error()}
	}
	o := f.finishJob(m.sys, res, wall, m.memCycle)
	o.loop = wall
	o.layers = m.report(j.mech, res, wall)
	return o
}

// report turns the machine's counters into a layer report.
func (m *tracedMachine) report(mech string, res sim.Result, wall time.Duration) *layerReport {
	s := m.sys
	r := newLayerReport()
	r.selfNS = m.t.finish(wall)
	r.intervals = m.t.intervals
	r.wallNS = float64(wall.Nanoseconds())
	r.cpuTicks = m.cpuTicks
	r.l1Calls, r.l1Retries = m.mem.calls, m.mem.retries
	r.l2Calls, r.l2Rejects = m.l2Down.calls, m.l2Down.rejects
	r.fsbHandoffs = res.FSBStats.Reads + res.FSBStats.Writes
	r.fsbPoolStalls = res.FSBStats.PoolStalled
	r.ctrlTicks = m.ctrlTicks
	r.memCycles = m.memCycle
	r.steps, r.inertSteps = m.steps, m.inertSteps
	r.skipped, r.windowed = m.skipped, m.windowed
	st := s.Ctrl.Stats
	r.submits = st.AcceptedReads + st.AcceptedWrites + st.RejectedRequests
	r.submitRejects = st.RejectedRequests
	r.writeSatCycles, r.ctrlCycles = st.WriteSatCycles, st.Cycles
	dram := m.warmupDRAM
	for i := 0; i < s.Ctrl.Channels(); i++ {
		dram += s.Ctrl.Channel(i).Stats.Reads + s.Ctrl.Channel(i).Stats.Writes
	}
	r.addMech(mech, r.selfNS[lMemctrl], r.intervals[lMemctrl], dram)
	return r
}
