package sim

import (
	"reflect"
	"testing"

	"burstmem/internal/cache"
	"burstmem/internal/cpu"
	"burstmem/internal/workload"
)

// loadOnlyL1 exposes only the L1's access methods. Without the blocking
// generation port the CPU re-probes every cache-blocked load every cycle:
// the reference behaviour that parking must reproduce.
type loadOnlyL1 struct{ l1 *cache.Cache }

func (m loadOnlyL1) Access(addr uint64, isWrite bool, done func()) cache.Result {
	return m.l1.Access(addr, isWrite, done)
}

func (m loadOnlyL1) AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result {
	return m.l1.AccessLoad(addr, mayAllocate, done)
}

// TestBlockedParkingDifferential: parking cache-blocked loads on the L1's
// blocking generation must change no statistic. Each case runs once with
// the real L1 (parked loads, retries counted in bulk) and once with the L1
// behind loadOnlyL1 (every retry performed), stepped and skipping, on
// profiles that keep the L1 MSHRs saturated. The whole Result must match —
// CPU, L1D (Blocked included) and L2 statistics among it.
//
// On the Table 3 machine the L2 holds every L1 victim, so L1 writebacks
// never wait and only MSHRs block loads. The writeback-bound machine
// shrinks the L2 below the L1 and the L1 writeback buffer to one entry:
// refused writebacks then block loads too, and only a drained writeback
// lets them through.
func TestBlockedParkingDifferential(t *testing.T) {
	wbBound := quickConfig()
	wbBound.L1D.WritebackBuf = 1
	wbBound.L2.SizeBytes = 32 << 10
	machines := []struct {
		name string
		cfg  Config
	}{{"", quickConfig()}, {"/wb-bound", wbBound}}
	for _, m := range machines {
		for _, bench := range []string{"swim", "lucas", "mcf"} {
			for _, mech := range []string{"Burst_TH", "RowHit"} {
				for _, disableSkip := range []bool{true, false} {
					cfg := m.cfg
					name := bench + "/" + mech + m.name + "/skip"
					if disableSkip {
						name = bench + "/" + mech + m.name + "/stepped"
					}
					t.Run(name, func(t *testing.T) {
						parked := runWith(t, cfg, bench, mech, disableSkip)
						retried := runLoadOnly(t, cfg, bench, mech, disableSkip)
						if parked.L1DStats.Blocked == 0 {
							t.Fatalf("no cache-blocked retries: the case does not exercise parking")
						}
						if !reflect.DeepEqual(parked, retried) {
							t.Errorf("parked run diverged from per-cycle retry:\n parked:  %+v\n retried: %+v",
								parked, retried)
						}
					})
				}
			}
		}
	}
}

// runLoadOnly is runWith with the core's L1 port narrowed to loadOnlyL1.
func runLoadOnly(t *testing.T, cfg Config, bench, mech string, disableSkip bool) Result {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := MechanismByName(mech)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, prof, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0's generator is the profile itself; a fresh one replays the
	// same instruction stream for the replacement core.
	gen, err := workload.New(prof)
	if err != nil {
		t.Fatal(err)
	}
	core, err := cpu.New(cfg.CPU, gen, loadOnlyL1{sys.L1D})
	if err != nil {
		t.Fatal(err)
	}
	sys.CPUs[0], sys.CPU = core, core
	sys.DisableSkip = disableSkip
	res, err := runSystem(cfg, sys, bench)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
