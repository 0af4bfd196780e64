package memctrl

// BankQueues is a per-bank set of intrusive access FIFOs with a
// nonempty-bank bitmap per rank, the queue structure shared by the
// scheduling mechanisms. Push/pop/remove are O(1); finding banks with
// queued work is a bitmap walk (bits.TrailingZeros64) instead of a scan
// over every rank×bank slot.
type BankQueues struct {
	banks int
	qs    []AccessList // flattened [rank*banks + bank]
	ne    []uint64     // per-rank nonempty-bank bitmaps
}

// NewBankQueues builds queues for a ranks×banks channel. Banks must be
// ≤ 64 (enforced by memctrl.Config.Validate).
func NewBankQueues(ranks, banks int) *BankQueues {
	return &BankQueues{
		banks: banks,
		qs:    make([]AccessList, ranks*banks),
		ne:    make([]uint64, ranks),
	}
}

// List returns the bank's queue.
func (q *BankQueues) List(r, b int) *AccessList { return &q.qs[r*q.banks+b] }

// Mask returns the rank's nonempty-bank bitmap.
func (q *BankQueues) Mask(r int) uint64 { return q.ne[r] }

// PushBack appends a to its bank's queue (keyed by a.Loc).
//
//burstmem:hotpath
func (q *BankQueues) PushBack(a *Access) {
	r, b := int(a.Loc.Rank), int(a.Loc.Bank)
	q.qs[r*q.banks+b].PushBack(a)
	q.ne[r] |= 1 << uint(b)
}

// PushFront prepends a to its bank's queue (e.g. a preempted write going
// back to the head).
//
//burstmem:hotpath
func (q *BankQueues) PushFront(a *Access) {
	r, b := int(a.Loc.Rank), int(a.Loc.Bank)
	q.qs[r*q.banks+b].PushFront(a)
	q.ne[r] |= 1 << uint(b)
}

// Remove unlinks a from its bank's queue.
//
//burstmem:hotpath
func (q *BankQueues) Remove(a *Access) {
	r, b := int(a.Loc.Rank), int(a.Loc.Bank)
	l := &q.qs[r*q.banks+b]
	l.Remove(a)
	if l.Empty() {
		q.ne[r] &^= 1 << uint(b)
	}
}

// PopFront unlinks and returns the bank's head access; nil when empty.
//
//burstmem:hotpath
func (q *BankQueues) PopFront(r, b int) *Access {
	l := &q.qs[r*q.banks+b]
	a := l.PopFront()
	if l.Empty() {
		q.ne[r] &^= 1 << uint(b)
	}
	return a
}
