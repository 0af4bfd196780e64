//go:build invariants

package cpu

import (
	"fmt"
	"strings"
	"testing"
)

// probeMem adds the side-effect-free refusal probe the shadow checker uses.
type probeMem struct{ genMem }

func (m *probeMem) WouldBlock(addr uint64) bool { return !m.open }

// TestParkShadowTrigger proves the -tags invariants parked-load check
// fires: loads park on a refusing port, then the port starts accepting
// loads without moving its blocking generation — the missed-bump bug the
// check exists for. The next bulk-counted retry must panic, cycle-stamped.
func TestParkShadowTrigger(t *testing.T) {
	m := &probeMem{}
	c := newCPU(t, DefaultConfig(), blockedLoads(2), m)
	for i := 0; i < 3; i++ {
		c.Tick()
	}
	m.open = true
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic from the parked-load shadow check, got none")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"cycle 4", "would not be refused"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not contain %q", msg, want)
			}
		}
	}()
	c.Tick()
}

// TestParkShadowCleanRun: with the generation bumped on the same event the
// check stays quiet and the loads issue.
func TestParkShadowCleanRun(t *testing.T) {
	m := &probeMem{}
	c := newCPU(t, DefaultConfig(), blockedLoads(2), m)
	for i := 0; i < 40; i++ {
		c.Tick()
	}
	m.open = true
	m.gen++
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	if c.Stats.LoadsIssued != 2 {
		t.Fatalf("LoadsIssued %d, want 2", c.Stats.LoadsIssued)
	}
}
