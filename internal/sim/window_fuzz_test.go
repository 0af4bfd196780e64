package sim

import (
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/mctest"
	"burstmem/internal/memctrl"
	"burstmem/internal/trace"
	"burstmem/internal/xrand"
)

// completionRec is one OnComplete callback observation: the order, identity
// and timing of callbacks is part of TickWindow's contract (the CPU/cache
// domain wakes up on them).
type completionRec struct {
	id    uint64
	cycle uint64
}

// fuzzWindowRun drives one controller through a deterministic randomized
// schedule of submission bursts, horizon-computed skip jumps and
// randomized tick windows, then drains it. With batched set each window
// is one TickWindow call; otherwise the same cycles are ticked one Tick at
// a time (the reference). It returns the OnComplete sequence, the tracer,
// and the controller for stats/conservation checks.
func fuzzWindowRun(t *testing.T, batched bool, channels int, seed uint64, subs int, skipMask, winMask uint8) ([]completionRec, *trace.Tracer, *memctrl.Controller) {
	t.Helper()
	factory, err := MechanismByName("Burst_TH")
	if err != nil {
		t.Fatal(err)
	}
	cfg := memctrl.DefaultConfig()
	cfg.Geometry = addrmap.Geometry{
		Channels: channels, Ranks: 2, Banks: 4, Rows: 64, ColumnLines: 32, LineBytes: 64,
	}
	cfg.PoolSize = 32
	cfg.MaxWrites = 8
	ctrl, err := memctrl.New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1<<18, 64)
	ctrl.SetTracer(tr)

	var recs []completionRec
	onComplete := func(a *memctrl.Access, at uint64) {
		recs = append(recs, completionRec{id: a.ID, cycle: at})
	}

	rng := xrand.New(seed)
	cyc := uint64(0)
	ctrl.Tick(cyc)
	for submitted := 0; submitted < subs; {
		cyc++
		ctrl.Tick(cyc)
		for b := rng.Intn(4); b > 0; b-- {
			kind := memctrl.KindRead
			if rng.Intn(3) == 0 {
				kind = memctrl.KindWrite
			}
			if !ctrl.CanAccept(kind) {
				continue
			}
			addr := uint64(rng.Intn(1<<13)) * 64
			if _, ok := ctrl.Submit(kind, addr, onComplete); ok {
				submitted++
			}
		}
		// Fuzz-selected cycles take a skip: jump to one cycle before the
		// controller's own event horizon, exactly as the skip engine does.
		if skipMask>>(cyc%8)&1 == 1 {
			if next := ctrl.NextEventCycle(cyc); next > cyc+1 && next != memctrl.NoEvent {
				k := next - 1 - cyc
				ctrl.AccountSkipped(k)
				cyc += k
			}
		}
		// Fuzz-selected cycles tick a window: a randomized end anywhere
		// inside the controller's completion-free guarantee, including
		// 1-cycle stubs that the production tryWindow path never picks.
		if winMask>>(cyc%8)&1 == 1 {
			from := cyc + 1
			if to := ctrl.WindowBound(from); to > from {
				wTo := from + 1 + uint64(rng.Intn(int(to-from)))
				if batched {
					ctrl.TickWindow(from, wTo)
				} else {
					for c := from; c < wTo; c++ {
						ctrl.Tick(c)
					}
				}
				cyc = wTo - 1
			}
		}
	}
	for i := 0; !ctrl.Drained(); i++ {
		if i > 200_000 {
			t.Fatalf("batched=%v: controller not drained after 200k cycles", batched)
		}
		cyc++
		ctrl.Tick(cyc)
	}
	return recs, tr, ctrl
}

// FuzzTickWindow differentially fuzzes Controller.TickWindow against
// per-cycle Tick over the same cycles: randomized channel counts,
// completion burst shapes, skip-jump placement and window bounds within
// WindowBound must never change the OnComplete sequence, the trace
// stream, the interval metrics, or the aggregate statistics, and the
// windowed stream must independently satisfy the conservation oracle.
func FuzzTickWindow(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint16(300), uint8(0x5a), uint8(0xff))
	f.Add(uint64(7), uint8(2), uint16(800), uint8(0xff), uint8(0x33))
	f.Add(uint64(42), uint8(0), uint16(120), uint8(0x00), uint8(0xaa))
	f.Add(uint64(0xdead), uint8(2), uint16(1500), uint8(0x11), uint8(0x00))
	f.Fuzz(func(t *testing.T, seed uint64, chExp uint8, subs uint16, skipMask, winMask uint8) {
		channels := 1 << (chExp % 3) // 1, 2 or 4 channels
		n := 50 + int(subs%1200)

		refRecs, refTr, refCtrl := fuzzWindowRun(t, false, channels, seed, n, skipMask, winMask)
		gotRecs, gotTr, gotCtrl := fuzzWindowRun(t, true, channels, seed, n, skipMask, winMask)

		if len(refRecs) != len(gotRecs) {
			t.Fatalf("completion counts differ: Tick %d vs TickWindow %d", len(refRecs), len(gotRecs))
		}
		for i := range refRecs {
			if refRecs[i] != gotRecs[i] {
				t.Fatalf("completion %d differs: Tick %+v vs TickWindow %+v", i, refRecs[i], gotRecs[i])
			}
		}
		re, ge := refTr.Events(), gotTr.Events()
		if len(re) != len(ge) {
			t.Fatalf("event counts differ: Tick %d vs TickWindow %d", len(re), len(ge))
		}
		for i := range re {
			if re[i] != ge[i] {
				t.Fatalf("event %d differs:\nTick       %+v\nTickWindow %+v", i, re[i], ge[i])
			}
		}
		ri, gi := refTr.Intervals(), gotTr.Intervals()
		if len(ri) != len(gi) {
			t.Fatalf("interval counts differ: Tick %d vs TickWindow %d", len(ri), len(gi))
		}
		for i := range ri {
			if ri[i] != gi[i] {
				t.Fatalf("interval %d differs:\nTick       %+v\nTickWindow %+v", i, ri[i], gi[i])
			}
		}
		rs, gs := refCtrl.Stats, gotCtrl.Stats
		if rs.Cycles != gs.Cycles || rs.WriteSatCycles != gs.WriteSatCycles ||
			rs.PoolFullCycles != gs.PoolFullCycles || rs.ForwardedReads != gs.ForwardedReads ||
			rs.AcceptedReads != gs.AcceptedReads || rs.AcceptedWrites != gs.AcceptedWrites ||
			rs.RejectedRequests != gs.RejectedRequests || rs.BytesTransferred != gs.BytesTransferred ||
			rs.ReadLatency != gs.ReadLatency || rs.WriteLatency != gs.WriteLatency {
			t.Fatalf("aggregate stats differ:\nTick       %+v\nTickWindow %+v", rs, gs)
		}
		if err := mctest.CheckConservation(gotTr, gotCtrl); err != nil {
			t.Fatalf("windowed stream fails conservation: %v", err)
		}
	})
}
