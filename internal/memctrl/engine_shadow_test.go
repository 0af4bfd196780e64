//go:build invariants

package memctrl

import (
	"testing"

	"burstmem/internal/addrmap"
)

// TestEngineShadowTrigger proves the -tags invariants next-event
// cross-check actually fires: it primes the engine's bound cache, then
// simulates a cache-invalidation bug by pushing the cached minimum issue
// bound far into the future without any channel state change, and asserts
// NextEventCycle panics cycle-stamped.
func TestEngineShadowTrigger(t *testing.T) {
	c, m := newEngineHarness(t)
	a, ok := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	if !ok {
		t.Fatal("submit failed")
	}
	m.engine.SetOngoing(0, 0, a)

	// Prime: the activate is issuable immediately, so the cache agrees
	// with the linear scan here.
	if next := m.engine.NextEventCycle(0); next != 1 {
		t.Fatalf("primed next event %d, want 1 (activate issuable next cycle)", next)
	}

	// Bug: the cache claims no bank can issue for thousands of cycles.
	// Nothing was marked dirty, so sync() keeps the corrupt minimum —
	// exactly the failure mode the shadow check exists to catch.
	m.engine.minFull = 50000

	mustPanicContaining(t, "cycle 0: engine predicts next event at cycle 50000 but the linear scan gives cycle 1", func() {
		m.engine.NextEventCycle(0)
	})
}

// TestEngineShadowReadinessTrigger proves the -tags invariants readiness
// cross-check fires in both directions: a bank whose cached bound claims
// it can issue while CanIssue refuses (its activate still inside tRRD of
// another bank's activate), and a bank CanIssue accepts while its cached
// bound says it must wait.
func TestEngineShadowReadinessTrigger(t *testing.T) {
	c, m := newEngineHarness(t)
	a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	b, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 1, Row: 2}), nil)
	m.engine.SetOngoing(0, 0, a)
	m.engine.SetOngoing(0, 1, b)
	if _, any := m.engine.Unblocked(0); !any {
		t.Fatal("two closed banks, but nothing unblocked")
	}
	m.engine.Issue(m.engine.CandidateAt(0, 0), 0)
	c.Tick(1)
	if _, any := m.engine.Unblocked(1); any {
		t.Fatal("bank 1's activate unblocked inside tRRD")
	}

	// Too early: the hint claims bank 1's activate is due now.
	m.engine.hints[1].full = 1
	m.engine.rankMin[0], m.engine.minFull = 1, 1
	mustPanicContaining(t, "cycle 1: Unblocked says rank 0 bank 1 ACT issuable=true but CanIssue says false", func() {
		m.engine.Unblocked(1)
	})

	// Too late: the real bound has passed, the hint still says wait.
	m.engine.stale |= 1 // drop the corrupt hint: rank 0 recomputes
	for now := uint64(2); ; now++ {
		c.Tick(now)
		if m.engine.Candidates()[1].Unblocked {
			m.engine.hints[1].full = 50000
			m.engine.rankMin[0], m.engine.minFull = 50000, 50000
			mustPanicContaining(t, "Unblocked says rank 0 bank 1 ACT issuable=false but CanIssue says true", func() {
				m.engine.Unblocked(now)
			})
			return
		}
		if now > 100 {
			t.Fatal("bank 1's activate never unblocked")
		}
	}
}

// TestEngineShadowCleanRun drives the engine through a normal
// submit/issue sequence under the shadow check to show agreement on the
// happy path (no panic).
func TestEngineShadowCleanRun(t *testing.T) {
	c, m := newEngineHarness(t)
	a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	m.engine.SetOngoing(0, 0, a)
	for now := uint64(1); now < 64 && m.engine.Ongoing(0, 0) != nil; now++ {
		c.Tick(now)
		m.engine.NextEventCycle(now)
		for _, cand := range m.engine.Candidates() {
			if cand.Unblocked {
				m.engine.Issue(cand, now)
				break
			}
		}
		m.engine.NextEventCycle(now)
	}
	if m.engine.Ongoing(0, 0) != nil {
		t.Fatal("access never completed its transaction sequence")
	}
}
