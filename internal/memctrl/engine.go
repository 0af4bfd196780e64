package memctrl

import (
	"math/bits"

	"burstmem/internal/dram"
)

// Engine tracks each bank's ongoing access — the access whose transactions
// are currently being scheduled (paper Section 3.2) — and steps accesses
// through their precharge/activate/column transaction sequences against the
// device state. Every mechanism reuses it; policies differ only in how they
// pick ongoing accesses and order candidate transactions.
//
// Occupied banks are tracked in one uint64 bitmap per rank, so candidate
// collection visits only banks that actually hold an ongoing access
// (bits.TrailingZeros64 per occupied bank) instead of scanning the whole
// rank×bank grid.
//
// On top of the bitmaps sits a cache of exact issue bounds: for every
// occupied bank the engine remembers the next transaction and the first
// cycle it can issue. The channel state a bound depends on is
// time-independent (the timers are absolute cycles; only comparisons
// against "now" move), so a bound stays exact until the channel marks its
// rank dirty or the data bus moves (dram.Channel.TakeDirty). Both scheduler
// queries then come from the cache: a bank can issue now exactly when its
// bound has arrived (plus one per-rank refresh test for activates), and the
// next event is the minimum bound.
type Engine struct {
	host    *Host
	ch      *dram.Channel // host.Channel(), one load closer
	banks   int
	ongoing [][]*Access // [rank][bank]
	occ     []uint64    // per-rank occupied-bank bitmaps
	// onColumn runs after an access's column transaction issues, before
	// the bank's ongoing slot clears.
	onColumn func(a *Access, now uint64)
	scratch  []Candidate

	// hints holds one cached next transaction and issue bound per
	// flattened bank (rank*banks+bank); only occupied banks' entries are
	// meaningful.
	hints []bankHint
	// classes is the reused result of Unblocked (per-rank class masks).
	classes BankClasses
	// stale marks ranks whose ongoing slots changed since the last sync;
	// sync recomputes their hints along with the ranks the channel marked.
	stale uint64
	// rankMin is each rank's minimum issue bound (dram.NoEvent for an
	// unoccupied rank), so sync refolds only the ranks it touched, and
	// Unblocked skips ranks with nothing due. colMask marks each rank's
	// occupied banks whose next command is a column access: the only
	// bounds a data-bus move can change.
	rankMin []uint64
	colMask []uint64
	// minFull is the minimum issue bound across occupied banks
	// (dram.NoEvent when none), exact after every sync. While it lies in
	// the future no bank can issue, so Unblocked skips mask construction
	// outright, and NextEventCycle is max(minFull, now+1).
	minFull uint64
	// oldestRank/oldestBank/oldestOK cache OldestOngoing, invalidated
	// whenever an ongoing slot changes (arrival stamps are immutable).
	oldestRank  int
	oldestBank  int
	oldestOK    bool
	oldestValid bool
	shadow      engineShadow
}

// bankHint caches one occupied bank's next transaction and issue bound.
// ready depends only on the bank's rank state; full folds in the data-bus
// term. Both are absolute cycles, so a hint is exact however much time has
// passed until its rank is marked dirty (or, for full, the bus moves). row,
// read and arrival copy the ongoing access's target row, kind and arrival
// stamp at SetOngoing, so neither sync, the Unblocked walk nor
// OldestOngoing dereferences the access.
type bankHint struct {
	cmd     dram.Cmd
	row     uint32
	read    bool   // the ongoing access is a read (its class-mask kind)
	ready   uint64 // EarliestReady: bank+rank constraint bound
	full    uint64 // max(ready, ColumnBusReady): the issue bound
	arrival uint64
}

// foldColumn sets a column command's issue bound from the rank's read and
// write data-bus bounds.
//
//burstmem:hotpath
func (h *bankHint) foldColumn(busRead, busWrite uint64) {
	if h.cmd == dram.CmdRead {
		h.full = maxU64(h.ready, busRead)
	} else {
		h.full = maxU64(h.ready, busWrite)
	}
}

// BankClasses holds, per rank, masks of banks whose next transaction is
// unblocked this cycle, split by transaction type (column vs row) and
// access kind (read vs write) — the four groups the paper's Table 2
// priority ranks. Refresh never appears: it is channel-internal and is not
// a candidate transaction.
type BankClasses struct {
	ColRead  []uint64
	ColWrite []uint64
	RowRead  []uint64
	RowWrite []uint64
}

// Rank returns the union of the rank's four class masks (every unblocked
// bank of the rank).
//
//burstmem:hotpath
func (cl *BankClasses) Rank(r int) uint64 {
	return cl.ColRead[r] | cl.ColWrite[r] | cl.RowRead[r] | cl.RowWrite[r]
}

// NewEngine builds an engine for the host's channel.
func NewEngine(host *Host, onColumn func(a *Access, now uint64)) *Engine {
	ch := host.Channel()
	e := &Engine{host: host, ch: ch, onColumn: onColumn, minFull: dram.NoEvent}
	e.banks = ch.Banks()
	e.ongoing = make([][]*Access, ch.Ranks())
	e.occ = make([]uint64, ch.Ranks())
	for r := range e.ongoing {
		e.ongoing[r] = make([]*Access, ch.Banks())
	}
	e.hints = make([]bankHint, ch.Ranks()*ch.Banks())
	e.rankMin = make([]uint64, ch.Ranks())
	e.colMask = make([]uint64, ch.Ranks())
	for r := range e.rankMin {
		e.rankMin[r] = dram.NoEvent
	}
	e.classes = BankClasses{
		ColRead:  make([]uint64, ch.Ranks()),
		ColWrite: make([]uint64, ch.Ranks()),
		RowRead:  make([]uint64, ch.Ranks()),
		RowWrite: make([]uint64, ch.Ranks()),
	}
	host.engine = e
	return e
}

// Ongoing returns the bank's ongoing access, or nil.
func (e *Engine) Ongoing(rank, bank int) *Access { return e.ongoing[rank][bank] }

// SetOngoing installs the bank's ongoing access.
//
//burstmem:hotpath
func (e *Engine) SetOngoing(rank, bank int, a *Access) {
	e.ongoing[rank][bank] = a
	e.occ[rank] |= 1 << uint(bank)
	e.stale |= 1 << uint(rank)
	h := &e.hints[rank*e.banks+bank]
	h.row, h.read, h.arrival = a.Loc.Row, a.Kind == KindRead, a.Arrival
	e.oldestValid = false
}

// ClearOngoing resets the bank's ongoing access (e.g. read preemption).
//
//burstmem:hotpath
func (e *Engine) ClearOngoing(rank, bank int) {
	e.ongoing[rank][bank] = nil
	e.occ[rank] &^= 1 << uint(bank)
	e.stale |= 1 << uint(rank)
	e.oldestValid = false
}

// OccupiedMask returns the rank's occupied-bank bitmap (bit b set means
// bank b has an ongoing access).
func (e *Engine) OccupiedMask(rank int) uint64 { return e.occ[rank] }

// ForEachBank visits every (rank, bank) pair in order.
func (e *Engine) ForEachBank(f func(rank, bank int)) {
	for r := range e.ongoing {
		for b := range e.ongoing[r] {
			f(r, b)
		}
	}
}

// sync brings every occupied bank's hint and minFull up to date. Nothing
// changed — no command issued, no refresh started, no ongoing slot moved —
// is the common case and costs one call. Otherwise marked ranks recompute
// their hints, and when the data bus moved the other ranks refold their
// column bounds; only ranks so touched refold their minimum.
//
//burstmem:hotpath
func (e *Engine) sync() {
	ch := e.ch
	dirty, bus := ch.TakeDirty()
	dirty |= e.stale
	if dirty == 0 && !bus {
		return
	}
	e.stale = 0
	min := dram.NoEvent
	for r, occ := range e.occ {
		recompute := dirty&(1<<uint(r)) != 0
		if !recompute && (!bus || e.colMask[r] == 0) {
			if m := e.rankMin[r]; m < min {
				min = m
			}
			continue
		}
		hints := e.hints[r*e.banks : (r+1)*e.banks]
		busRead, busWrite := ch.ColumnBusReady(dram.CmdRead, r), ch.ColumnBusReady(dram.CmdWrite, r)
		if recompute {
			var col uint64
			for mask := occ; mask != 0; mask &= mask - 1 {
				b := bits.TrailingZeros64(mask)
				h := &hints[b]
				t := dram.Target{Rank: r, Bank: b, Row: h.row}
				h.cmd = ch.NextCommand(t, h.read)
				h.ready = ch.EarliestReady(h.cmd, t)
				h.full = h.ready
				if h.cmd == dram.CmdRead || h.cmd == dram.CmdWrite {
					h.foldColumn(busRead, busWrite)
					col |= 1 << uint(b)
				}
			}
			e.colMask[r] = col
		} else {
			for mask := e.colMask[r]; mask != 0; mask &= mask - 1 {
				hints[bits.TrailingZeros64(mask)].foldColumn(busRead, busWrite)
			}
		}
		rankMin := dram.NoEvent
		for mask := occ; mask != 0; mask &= mask - 1 {
			if f := hints[bits.TrailingZeros64(mask)].full; f < rankMin {
				rankMin = f
			}
		}
		e.rankMin[r] = rankMin
		if rankMin < min {
			min = rankMin
		}
	}
	e.minFull = min
}

// Candidate is a bank's next transaction, with its unblocked status this
// cycle.
type Candidate struct {
	Rank, Bank int
	Access     *Access
	Cmd        dram.Cmd
	Unblocked  bool
}

// IsColumn reports whether the candidate transaction transfers data.
func (c Candidate) IsColumn() bool { return c.Cmd == dram.CmdRead || c.Cmd == dram.CmdWrite }

// Candidates returns the next transaction of every bank with an ongoing
// access. Blocked transactions are included (Unblocked=false) so policies
// that need "oldest access" context (paper Fig. 6 lines 14-15) can see
// them. The returned slice is reused across calls.
//
//burstmem:hotpath
func (e *Engine) Candidates() []Candidate {
	e.scratch = e.collectCandidates(e.scratch[:0])
	return e.scratch
}

// collectCandidates fills dst with the per-bank next transactions, walking
// the occupied bitmaps in (rank, bank) order. Commands and readiness come
// from the hint cache.
//
//burstmem:hotpath
func (e *Engine) collectCandidates(dst []Candidate) []Candidate {
	e.sync()
	ch := e.ch
	now := ch.Now()
	free := ch.CommandSlotFree()
	for r := range e.occ {
		for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			h := &e.hints[r*e.banks+b]
			//lint:ignore hotalloc appends into the caller's scratch slice, whose capacity is retained
			dst = append(dst, Candidate{
				Rank:      r,
				Bank:      b,
				Access:    e.ongoing[r][b],
				Cmd:       h.cmd,
				Unblocked: free && e.issuable(h, r, now),
			})
		}
	}
	e.shadow.checkCandidates(e, dst)
	return dst
}

// issuable reports whether rank r's hinted command can issue at now, given
// a free command slot. With the slot free, CanIssue holds exactly when the
// exact cached bound has arrived and, for an activate, the rank has no
// refresh pending — the one blocking condition that starts with time
// rather than with a state change. The invariants build cross-checks every
// answer against CanIssue (see shadow_on.go).
//
//burstmem:hotpath
func (e *Engine) issuable(h *bankHint, r int, now uint64) bool {
	return h.full <= now && (h.cmd != dram.CmdActivate || !e.ch.RefreshPending(r))
}

// Unblocked classifies every occupied bank whose next transaction can issue
// this cycle (see issuable) into the four Table 2 class masks, returning
// whether any bank qualified. The masks are reused across calls and valid
// until the next Unblocked or state change. The walk reads only the hint
// array.
//
//burstmem:hotpath
func (e *Engine) Unblocked(now uint64) (*BankClasses, bool) {
	e.sync()
	ch := e.ch
	if e.minFull > now || !ch.CommandSlotFree() {
		// Every issue bound lies in the future, or the refresh engine
		// took the slot: no bank can qualify. The stale masks are never
		// read on the !any return.
		e.shadow.checkUnblocked(e, nil, false)
		return &e.classes, false
	}
	cl := &e.classes
	any := false
	for r := range e.occ {
		var colRead, colWrite, rowRead, rowWrite uint64
		if e.rankMin[r] <= now { // an unoccupied rank's minimum is NoEvent
			hints := e.hints[r*e.banks : (r+1)*e.banks]
			for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
				b := bits.TrailingZeros64(mask)
				h := &hints[b]
				if !e.issuable(h, r, now) {
					continue
				}
				col := h.cmd == dram.CmdRead || h.cmd == dram.CmdWrite
				bit := uint64(1) << uint(b)
				switch {
				case col && h.read:
					colRead |= bit
				case col:
					colWrite |= bit
				case h.read:
					rowRead |= bit
				default:
					rowWrite |= bit
				}
				any = true
			}
		}
		cl.ColRead[r], cl.ColWrite[r] = colRead, colWrite
		cl.RowRead[r], cl.RowWrite[r] = rowRead, rowWrite
	}
	e.shadow.checkUnblocked(e, cl, any)
	return cl, any
}

// CandidateAt builds the candidate for an occupied bank from its hint. Only
// meaningful immediately after Unblocked (or Candidates) on a bank one of
// the class masks reported, so Unblocked is true by construction.
//
//burstmem:hotpath
func (e *Engine) CandidateAt(rank, bank int) Candidate {
	h := &e.hints[rank*e.banks+bank]
	return Candidate{Rank: rank, Bank: bank, Access: e.ongoing[rank][bank], Cmd: h.cmd, Unblocked: true}
}

// OldestOngoing returns the occupied bank holding the oldest ongoing access
// (rank-major scan order, strict comparison — ties go to the lowest
// rank/bank, matching the candidate-slice scan it replaces). Arrival stamps
// are immutable, so the answer only changes when a bank's ongoing slot
// does; the scan result is cached until then.
//
//burstmem:hotpath
func (e *Engine) OldestOngoing() (rank, bank int, ok bool) {
	if e.oldestValid {
		return e.oldestRank, e.oldestBank, e.oldestOK
	}
	var best uint64
	for r := range e.occ {
		hints := e.hints[r*e.banks : (r+1)*e.banks]
		for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			if a := hints[b].arrival; !ok || a < best {
				best, rank, bank, ok = a, r, b, true
			}
		}
	}
	e.oldestRank, e.oldestBank, e.oldestOK = rank, bank, ok
	e.oldestValid = true
	return rank, bank, ok
}

// NextEventCycle returns the earliest cycle any occupied bank's next
// transaction could become issuable (dram.NoEvent when no bank has an
// ongoing access). Mechanisms with no internal timers use this directly as
// their idle-skip hint: with no submissions, completions or refreshes in
// between, the channel state is frozen and nothing can happen earlier.
//
// The answer is exact: minFull is the minimum cached issue bound, and
// every bound equals the bank's EarliestIssue before its now+1 floor. The
// invariants build cross-checks it against the linear scan (see
// shadow_on.go).
//
//burstmem:hotpath
func (e *Engine) NextEventCycle(now uint64) uint64 {
	e.sync()
	next := dram.NoEvent
	if e.minFull != dram.NoEvent {
		next = maxU64(e.minFull, now+1)
	}
	e.shadow.checkNextEvent(e, now, next)
	return next
}

// Issue executes the candidate's transaction. For a column transaction the
// access completes: the completion is scheduled at its data end, the
// onColumn hook runs, and the bank's ongoing slot clears. Issue records the
// access start/outcome on its first transaction.
//
//burstmem:hotpath
func (e *Engine) Issue(c Candidate, now uint64) {
	ch := e.ch
	a := c.Access
	e.host.StartAccess(a, now)
	res := ch.Issue(c.Cmd, a.Target(), c.IsColumn() && e.host.AutoPrecharge())
	if c.IsColumn() {
		e.host.CompleteAt(a, res.DataEnd)
		if e.onColumn != nil {
			e.onColumn(a, now)
		}
		e.ClearOngoing(c.Rank, c.Bank)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
