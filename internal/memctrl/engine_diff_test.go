package memctrl_test

import (
	"fmt"
	"math/bits"
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
	"burstmem/internal/memctrl"
	"burstmem/internal/sim"
	"burstmem/internal/xrand"
)

// checkedMech wraps a mechanism so the engine's two per-tick queries are
// compared with references recomputed from primary channel state right
// before and right after every Tick.
type checkedMech struct {
	memctrl.Mechanism
	h   *memctrl.Host
	err error
}

func (m *checkedMech) Tick(now uint64) {
	m.check(now, "before")
	m.Mechanism.Tick(now)
	m.check(now, "after")
}

func (m *checkedMech) check(now uint64, when string) {
	if m.err != nil {
		return
	}
	if err := diffEngine(memctrl.EngineOf(m.h), m.h.Channel(), now); err != nil {
		m.err = fmt.Errorf("cycle %d, %s Tick: %v", now, when, err)
	}
}

// diffEngine compares Unblocked's class masks with masks built from
// dram.Channel.CanIssue, and NextEventCycle with the minimum
// EarliestIssue over the occupied banks.
func diffEngine(e *memctrl.Engine, ch *dram.Channel, now uint64) error {
	cl, any := e.Unblocked(now)
	wantAny := false
	linear := dram.NoEvent
	for r := 0; r < ch.Ranks(); r++ {
		var want, got [4]uint64 // ColRead, ColWrite, RowRead, RowWrite
		for occ := e.OccupiedMask(r); occ != 0; occ &= occ - 1 {
			b := bits.TrailingZeros64(occ)
			a := e.Ongoing(r, b)
			read := a.Kind == memctrl.KindRead
			cmd := ch.NextCommand(a.Target(), read)
			if at := ch.EarliestIssue(cmd, a.Target()); at < linear {
				linear = at
			}
			if !ch.CanIssue(cmd, a.Target()) {
				continue
			}
			class := 0
			if cmd != dram.CmdRead && cmd != dram.CmdWrite {
				class = 2
			}
			if !read {
				class++
			}
			want[class] |= 1 << uint(b)
			wantAny = true
		}
		if any {
			got = [4]uint64{cl.ColRead[r], cl.ColWrite[r], cl.RowRead[r], cl.RowWrite[r]}
		}
		if got != want {
			return fmt.Errorf("rank %d: Unblocked masks %#x, CanIssue reference %#x", r, got, want)
		}
	}
	if any != wantAny {
		return fmt.Errorf("Unblocked any=%v, CanIssue reference %v", any, wantAny)
	}
	if next := e.NextEventCycle(now); next != linear {
		return fmt.Errorf("NextEventCycle %d, linear EarliestIssue minimum %d", next, linear)
	}
	return nil
}

// TestEngineQueriesDifferential drives seeded random single-channel
// traffic under every Table 4 mechanism, with refresh on, under both page
// policies, and on every cycle checks the engine's cached-bound answers
// (which banks can issue now, when the next event is) against the
// references recomputed from the device state.
func TestEngineQueriesDifferential(t *testing.T) {
	policies := []struct {
		name   string
		policy memctrl.RowPolicy
	}{{"open", memctrl.OpenPage}, {"close-auto", memctrl.ClosePageAuto}}
	for _, p := range policies {
		for _, name := range sim.MechanismNames() {
			t.Run(name+"/"+p.name, func(t *testing.T) {
				factory, err := sim.MechanismByName(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := memctrl.DefaultConfig()
				cfg.Geometry = addrmap.Geometry{
					Channels: 1, Ranks: 2, Banks: 4, Rows: 16, ColumnLines: 16, LineBytes: 64,
				}
				cfg.RowPolicy = p.policy
				cfg.PoolSize = 32
				cfg.MaxWrites = 12
				var mechs []*checkedMech
				ctrl, err := memctrl.New(cfg, func(h *memctrl.Host) memctrl.Mechanism {
					m := &checkedMech{Mechanism: factory(h), h: h}
					mechs = append(mechs, m)
					return m
				})
				if err != nil {
					t.Fatal(err)
				}
				rng := xrand.New(11)
				lines := uint64(cfg.Geometry.Ranks*cfg.Geometry.Banks) * 4 * 16
				const cycles = 12000 // spans several refresh intervals per rank
				for now := uint64(0); now < cycles; now++ {
					ctrl.Tick(now)
					if err := mechs[0].err; err != nil {
						t.Fatal(err)
					}
					if now > cycles-2000 || rng.Intn(3) == 0 {
						continue // bursty arrivals, then a drain
					}
					kind := memctrl.KindRead
					if rng.Intn(3) == 0 {
						kind = memctrl.KindWrite
					}
					if ctrl.CanAccept(kind) {
						ctrl.Submit(kind, uint64(rng.Intn(int(lines)))*64, nil)
					}
				}
				if ctrl.Stats.AcceptedReads == 0 || ctrl.Stats.AcceptedWrites == 0 {
					t.Fatal("no traffic reached the controller")
				}
			})
		}
	}
}
