//go:build invariants

package cpu

import "fmt"

// This file is the enabled build of the parked-load shadow checker (build
// with -tags invariants). Whenever the CPU counts cache-blocked retries in
// bulk instead of performing them, each parked load is re-asked of the
// memory port with a probe that has no side effects. A load the port would
// now accept means the blocking generation failed to move on an event that
// unblocked it: the skipped retry would have issued, silently changing
// simulation results — so that panics, cycle-stamped.

// blockProber is the side-effect-free refusal probe (the L1 cache's
// WouldBlock). Ports without it are not checked.
type blockProber interface{ WouldBlock(addr uint64) bool }

// parkShadow is the enabled parked-load shadow checker.
type parkShadow struct{}

func (parkShadow) checkParked(c *CPU, idxs []int) {
	p, ok := c.mem.(blockProber)
	if !ok {
		return
	}
	for _, idx := range idxs {
		if addr := c.rob[idx].addr; !p.WouldBlock(addr) {
			panic(fmt.Sprintf(
				"cpu sanitizer: cycle %d: load %#x parked as cache-blocked at blocking generation %d would not be refused (a retry was counted instead of issued)",
				c.now, addr, c.blockGen))
		}
	}
}
