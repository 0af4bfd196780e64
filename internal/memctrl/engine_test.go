package memctrl

import (
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
)

// engineHarness builds a single-channel controller with a do-nothing
// mechanism so tests can drive an Engine by hand.
type inertMech struct{ engine *Engine }

func (m *inertMech) Name() string                  { return "inert" }
func (m *inertMech) ForwardsWrites() bool          { return false }
func (m *inertMech) Pending() (int, int)           { return 0, 0 }
func (m *inertMech) Enqueue(a *Access, now uint64) {}
func (m *inertMech) Tick(now uint64)               {}

func newEngineHarness(t *testing.T) (*Controller, *inertMech) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Timing.TREFI = 0
	cfg.Geometry = addrmap.Geometry{
		Channels: 1, Ranks: 2, Banks: 2, Rows: 16, ColumnLines: 16, LineBytes: 64,
	}
	cfg.PoolSize = 16
	cfg.MaxWrites = 8
	var mech *inertMech
	c, err := New(cfg, func(h *Host) Mechanism {
		mech = &inertMech{}
		mech.engine = NewEngine(h, nil)
		return mech
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick(0)
	return c, mech
}

func TestEngineOngoingBookkeeping(t *testing.T) {
	c, m := newEngineHarness(t)
	a, ok := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 1, Bank: 1, Row: 3}), nil)
	if !ok {
		t.Fatal("submit failed")
	}
	if m.engine.Ongoing(1, 1) != nil {
		t.Fatal("fresh engine has an ongoing access")
	}
	m.engine.SetOngoing(1, 1, a)
	if m.engine.Ongoing(1, 1) != a {
		t.Fatal("ongoing not installed")
	}
	m.engine.ClearOngoing(1, 1)
	if m.engine.Ongoing(1, 1) != nil {
		t.Fatal("ongoing not cleared")
	}
}

func TestEngineCandidatesAndIssue(t *testing.T) {
	c, m := newEngineHarness(t)
	a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	m.engine.SetOngoing(0, 0, a)

	// Closed bank: candidate must be an unblocked activate.
	cands := m.engine.Candidates()
	if len(cands) != 1 {
		t.Fatalf("%d candidates, want 1", len(cands))
	}
	if cands[0].Cmd != dram.CmdActivate || !cands[0].Unblocked || cands[0].IsColumn() {
		t.Fatalf("candidate %+v, want unblocked activate", cands[0])
	}
	m.engine.Issue(cands[0], 0)
	if !a.Started() {
		t.Fatal("access not marked started after first transaction")
	}
	if a.Outcome != dram.RowEmpty {
		t.Fatalf("outcome %v, want empty", a.Outcome)
	}

	// Step until the column is unblocked (tRCD), then issue it; the
	// ongoing slot must clear and a completion must be scheduled.
	cyc := uint64(0)
	for {
		cyc++
		c.Tick(cyc)
		cands = m.engine.Candidates()
		if len(cands) == 1 && cands[0].Cmd == dram.CmdRead && cands[0].Unblocked {
			m.engine.Issue(cands[0], cyc)
			break
		}
		if cyc > 100 {
			t.Fatal("column never unblocked")
		}
	}
	if m.engine.Ongoing(0, 0) != nil {
		t.Fatal("ongoing slot not cleared after column issue")
	}
	if a.DataEnd <= cyc {
		t.Fatalf("DataEnd %d not in the future of %d", a.DataEnd, cyc)
	}
	// Candidates must be empty now.
	if got := len(m.engine.Candidates()); got != 0 {
		t.Fatalf("%d candidates after completion, want 0", got)
	}
}

func TestEngineForEachBank(t *testing.T) {
	_, m := newEngineHarness(t)
	visited := map[[2]int]bool{}
	m.engine.ForEachBank(func(r, b int) { visited[[2]int{r, b}] = true })
	if len(visited) != 4 {
		t.Fatalf("visited %d banks, want 4 (2 ranks x 2 banks)", len(visited))
	}
}

func TestEngineOnColumnHook(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timing.TREFI = 0
	cfg.Geometry = addrmap.Geometry{
		Channels: 1, Ranks: 1, Banks: 1, Rows: 8, ColumnLines: 8, LineBytes: 64,
	}
	cfg.PoolSize = 4
	cfg.MaxWrites = 2
	var hook []*Access
	var eng *Engine
	c, err := New(cfg, func(h *Host) Mechanism {
		m := &inertMech{}
		m.engine = NewEngine(h, func(a *Access, now uint64) { hook = append(hook, a) })
		eng = m.engine
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick(0)
	a, _ := c.Submit(KindWrite, 0, nil)
	eng.SetOngoing(0, 0, a)
	for cyc := uint64(1); cyc < 200 && len(hook) == 0; cyc++ {
		c.Tick(cyc)
		for _, cand := range eng.Candidates() {
			if cand.Unblocked {
				eng.Issue(cand, cyc)
			}
		}
	}
	if len(hook) != 1 || hook[0] != a {
		t.Fatalf("onColumn hook fired %d times", len(hook))
	}
}

// TestEngineClearOngoingRefoldsNextEvent: vacating the bank that holds
// the earliest issue bound must move NextEventCycle to the next bank's
// bound, even though no channel state changed.
func TestEngineClearOngoingRefoldsNextEvent(t *testing.T) {
	c, m := newEngineHarness(t)
	a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	m.engine.SetOngoing(0, 0, a)
	if _, any := m.engine.Unblocked(0); !any {
		t.Fatal("closed bank's activate not unblocked")
	}
	m.engine.Issue(m.engine.CandidateAt(0, 0), 0) // activate; the read waits out tRCD
	c.Tick(1)
	b, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 1, Bank: 1, Row: 2}), nil)
	m.engine.SetOngoing(1, 1, b)
	if next := m.engine.NextEventCycle(1); next != 2 {
		t.Fatalf("next event %d, want 2 (rank 1's activate)", next)
	}
	m.engine.ClearOngoing(1, 1)
	want := c.channels[0].EarliestIssue(dram.CmdRead, a.Target())
	if want <= 2 {
		t.Fatalf("read bound %d, want one past tRCD", want)
	}
	if next := m.engine.NextEventCycle(1); next != want {
		t.Fatalf("next event after ClearOngoing %d, want the read's bound %d", next, want)
	}
}
