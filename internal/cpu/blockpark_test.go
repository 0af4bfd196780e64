package cpu

import (
	"testing"

	"burstmem/internal/cache"
	"burstmem/internal/workload"
)

// refuseMem refuses every load (Blocked) until opened; opened, loads miss
// and never complete. Stores hit. refused tallies what the L1's Blocked
// statistic would count.
type refuseMem struct {
	open    bool
	probes  int
	refused uint64
}

func (m *refuseMem) Access(addr uint64, isWrite bool, done func()) cache.Result {
	if isWrite {
		return cache.Hit
	}
	return m.AccessLoad(addr, true, done)
}

func (m *refuseMem) AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result {
	m.probes++
	switch {
	case !m.open:
		m.refused++
		return cache.Blocked
	case !mayAllocate:
		return cache.Parked
	}
	return cache.Miss
}

// genMem adds the blocking-generation port to refuseMem.
type genMem struct {
	refuseMem
	gen uint64
}

func (m *genMem) Gen() uint64           { return m.gen }
func (m *genMem) CountBlocked(n uint64) { m.refused += n }

func blockedLoads(n int) *scriptGen {
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = workload.Op{Type: workload.OpLoad, Addr: uint64(i+1) << 12}
	}
	return &scriptGen{ops: ops}
}

// TestBlockedLoadsPark: with a generation port, refused loads are probed
// once and then parked; their per-cycle retries are counted, not performed,
// and the count and every CPU statistic match a port without the
// generation, which re-probes each load every cycle. A moved generation
// ends the park.
func TestBlockedLoadsPark(t *testing.T) {
	const loads, cycles = 4, 60
	ref := &refuseMem{}
	gated := &genMem{}
	cr := newCPU(t, DefaultConfig(), blockedLoads(loads), ref)
	cg := newCPU(t, DefaultConfig(), blockedLoads(loads), gated)
	for i := 0; i < cycles; i++ {
		cr.Tick()
		cg.Tick()
	}
	if gated.probes != loads {
		t.Errorf("gated port probed %d times, want %d (one per load at dispatch)", gated.probes, loads)
	}
	if ref.probes != loads*cycles {
		t.Errorf("reference port probed %d times, want %d (every load every cycle)", ref.probes, loads*cycles)
	}
	if gated.refused != ref.refused || cg.Stats != cr.Stats {
		t.Fatalf("parked run diverged: refused %d vs %d, stats %+v vs %+v",
			gated.refused, ref.refused, cg.Stats, cr.Stats)
	}
	// The ROB is full behind the blocked head: only parking makes the core
	// a skip candidate.
	if !cg.SkipEligible() || cr.SkipEligible() {
		t.Errorf("SkipEligible: gated %v (want true), reference %v (want false)",
			cg.SkipEligible(), cr.SkipEligible())
	}
	if cg.NextEventCycle() != NoEvent {
		t.Errorf("parked core NextEventCycle %d, want NoEvent", cg.NextEventCycle())
	}

	// An MSHR frees: the generation moves and the loads get through.
	ref.open, gated.open = true, true
	gated.gen++
	if cg.NextEventCycle() == NoEvent {
		t.Fatal("moved generation left the core stalled")
	}
	before := gated.probes
	for i := 0; i < 5; i++ {
		cr.Tick()
		cg.Tick()
	}
	if gated.probes != before+loads {
		t.Errorf("after the generation moved: %d probes, want %d", gated.probes-before, loads)
	}
	if gated.refused != ref.refused || cg.Stats != cr.Stats {
		t.Errorf("after wake: refused %d vs %d, stats %+v vs %+v",
			gated.refused, ref.refused, cg.Stats, cr.Stats)
	}
}

// TestBlockedLoadsSkipCycles: a bulk skip over parked loads counts one
// refused retry per load per cycle.
func TestBlockedLoadsSkipCycles(t *testing.T) {
	m := &genMem{}
	c := newCPU(t, DefaultConfig(), blockedLoads(3), m)
	for !c.SkipEligible() {
		c.Tick()
	}
	before := m.refused
	c.SkipCycles(100)
	if got := m.refused - before; got != 300 {
		t.Errorf("SkipCycles(100) over 3 parked loads counted %d retries, want 300", got)
	}
}
