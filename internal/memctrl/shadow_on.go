//go:build invariants

package memctrl

import (
	"fmt"
	"math/bits"

	"burstmem/internal/dram"
)

// This file is the enabled build of the engine shadow checker (build with
// -tags invariants). The engine answers its two per-tick queries from
// cached issue bounds; the shadow recomputes both from primary channel
// state and panics, cycle-stamped, on any disagreement:
//
//   - NextEventCycle must equal the linear scan: per occupied bank, the
//     next command's EarliestIssue, minimized. Later would let TrySkip jump
//     a cycle on which a transaction becomes issuable; earlier would mean a
//     stale bound, which also corrupts readiness.
//   - Every bank Unblocked classifies (or leaves out), and every
//     Candidate's Unblocked flag, must agree with dram.Channel.CanIssue,
//     and a classified bank must sit in the class its command and access
//     kind name.

// engineShadow is the enabled engine shadow checker.
type engineShadow struct{}

func (engineShadow) checkNextEvent(e *Engine, now, fast uint64) {
	if linear := linearNextEvent(e); fast != linear {
		panic(fmt.Sprintf(
			"memctrl sanitizer: cycle %d: engine predicts next event at cycle %d but the linear scan gives cycle %d",
			now, fast, linear))
	}
}

func (engineShadow) checkUnblocked(e *Engine, cl *BankClasses, any bool) {
	ch := e.host.Channel()
	found := false
	for r := range e.occ {
		var mask, col, read uint64
		if any {
			mask = cl.Rank(r)
			col = cl.ColRead[r] | cl.ColWrite[r]
			read = cl.ColRead[r] | cl.RowRead[r]
			if stray := mask &^ e.occ[r]; stray != 0 {
				panic(fmt.Sprintf("memctrl sanitizer: cycle %d: Unblocked classifies unoccupied banks %#x of rank %d",
					ch.Now(), stray, r))
			}
		}
		for occ := e.occ[r]; occ != 0; occ &= occ - 1 {
			b := bits.TrailingZeros64(occ)
			a := e.ongoing[r][b]
			cmd := ch.NextCommand(a.Target(), a.Kind == KindRead)
			want := ch.CanIssue(cmd, a.Target())
			bit := uint64(1) << uint(b)
			if got := mask&bit != 0; got != want {
				panic(fmt.Sprintf("memctrl sanitizer: cycle %d: Unblocked says rank %d bank %d %v issuable=%v but CanIssue says %v",
					ch.Now(), r, b, cmd, got, want))
			}
			if !want {
				continue
			}
			found = true
			classes := 0
			for _, m := range [...]uint64{cl.ColRead[r], cl.ColWrite[r], cl.RowRead[r], cl.RowWrite[r]} {
				if m&bit != 0 {
					classes++
				}
			}
			isCol := cmd == dram.CmdRead || cmd == dram.CmdWrite
			if classes != 1 || (col&bit != 0) != isCol || (read&bit != 0) != (a.Kind == KindRead) {
				panic(fmt.Sprintf("memctrl sanitizer: cycle %d: Unblocked puts rank %d bank %d %v (%v) in the wrong class",
					ch.Now(), r, b, cmd, a.Kind))
			}
		}
	}
	if found != any {
		panic(fmt.Sprintf("memctrl sanitizer: cycle %d: Unblocked reports any=%v but CanIssue finds issuable=%v",
			ch.Now(), any, found))
	}
}

func (engineShadow) checkCandidates(e *Engine, cands []Candidate) {
	ch := e.host.Channel()
	for _, c := range cands {
		if want := ch.CanIssue(c.Cmd, c.Access.Target()); c.Unblocked != want {
			panic(fmt.Sprintf("memctrl sanitizer: cycle %d: candidate rank %d bank %d %v unblocked=%v but CanIssue says %v",
				ch.Now(), c.Rank, c.Bank, c.Cmd, c.Unblocked, want))
		}
	}
}

// linearNextEvent is the reference next-event scan: the minimum
// EarliestIssue over every occupied bank's next command, recomputed from
// primary channel state (dram.NoEvent when no bank is occupied).
func linearNextEvent(e *Engine) uint64 {
	ch := e.host.Channel()
	linear := dram.NoEvent
	for r := range e.occ {
		for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			a := e.ongoing[r][b]
			cmd := ch.NextCommand(a.Target(), a.Kind == KindRead)
			if at := ch.EarliestIssue(cmd, a.Target()); at < linear {
				linear = at
			}
		}
	}
	return linear
}
