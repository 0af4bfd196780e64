package sim

import (
	"strings"
	"testing"

	"burstmem/internal/memctrl"
	"burstmem/internal/workload"
)

// quickConfig keeps integration tests fast.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 20_000
	cfg.Instructions = 40_000
	return cfg
}

func runQuick(t *testing.T, bench, mech string) Result {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := MechanismByName(mech)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(quickConfig(), prof, factory)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Instructions = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero instructions accepted")
	}
	bad = DefaultConfig()
	bad.CPUCyclesPerMemCycle = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero clock ratio accepted")
	}
}

func TestMechanismByName(t *testing.T) {
	for _, name := range MechanismNames() {
		if _, err := MechanismByName(name); err != nil {
			t.Errorf("MechanismByName(%q): %v", name, err)
		}
	}
	if _, err := MechanismByName("InOrder"); err != nil {
		t.Errorf("InOrder: %v", err)
	}
	if _, err := MechanismByName("Burst_TH17"); err != nil {
		t.Errorf("parameterized threshold: %v", err)
	}
	if _, err := MechanismByName("Burst_THx"); err == nil {
		t.Error("bad threshold accepted")
	}
	if _, err := MechanismByName("Burst_TH64"); err != nil {
		t.Errorf("threshold at the write-queue size: %v", err)
	}
	_, err := MechanismByName("Burst_TH999")
	if err == nil || !strings.Contains(err.Error(), "exceeds the write-queue size (MaxWrites 64)") {
		t.Errorf("threshold above the write-queue size: got %v, want a MaxWrites error", err)
	}
	if _, err := MechanismByName("FRFCFS"); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

// TestThresholdCheckedAgainstConfiguredQueue: a Burst_TH<n> name that fits
// the default queue is still rejected when the controller's own write
// queue is smaller, while Burst_RP (threshold = MaxWrites) and the bare
// Burst_TH (the paper threshold, scaled) are accepted.
func TestThresholdCheckedAgainstConfiguredQueue(t *testing.T) {
	cfg := memctrl.DefaultConfig()
	cfg.MaxWrites = 32
	for _, tc := range []struct{ mech, err string }{
		{"Burst_TH52", "memctrl: Burst_TH52 write threshold 52 outside the write queue [0, MaxWrites 32]"},
		{"Burst_TH33", "Burst_TH33 write threshold 33 outside"},
		{"Burst_TH32", ""},
		{"Burst_RP", ""},
		{"Burst_TH", ""},
	} {
		factory, err := MechanismByName(tc.mech)
		if err != nil {
			t.Fatal(err)
		}
		_, err = memctrl.New(cfg, factory)
		if tc.err == "" && err != nil {
			t.Errorf("%s rejected on a 32-entry queue: %v", tc.mech, err)
		}
		if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s on a 32-entry queue: got %v, want an error containing %q", tc.mech, err, tc.err)
		}
	}
}

// TestEndToEndRun: a full-system simulation completes and produces
// internally consistent measurements.
func TestEndToEndRun(t *testing.T) {
	res := runQuick(t, "gcc", "Burst_TH")
	if res.Instructions < 40_000 {
		t.Fatalf("measured window retired %d instructions, want >= 40k", res.Instructions)
	}
	if res.IPC <= 0 || res.IPC > 8 {
		t.Fatalf("IPC %v out of range", res.IPC)
	}
	if res.MemReads == 0 || res.MemWrites == 0 {
		t.Fatalf("no memory traffic: %d reads, %d writes", res.MemReads, res.MemWrites)
	}
	if res.ReadLatency <= 0 {
		t.Fatal("zero read latency")
	}
	if s := res.RowHit + res.RowEmpty + res.RowConflict; s < 0.99 || s > 1.01 {
		t.Fatalf("row outcome rates sum to %v", s)
	}
	if res.DataBusUtil <= 0 || res.DataBusUtil > 1 {
		t.Fatalf("data bus utilization %v", res.DataBusUtil)
	}
	if res.CPUCycles != res.MemCycles*10 {
		t.Fatalf("clock domains inconsistent: %d CPU vs %d mem cycles", res.CPUCycles, res.MemCycles)
	}
	if res.Mechanism != "Burst_TH52" || res.Benchmark != "gcc" {
		t.Fatalf("labels: %s/%s", res.Mechanism, res.Benchmark)
	}
}

// TestDeterminism: identical runs produce identical results.
func TestDeterminism(t *testing.T) {
	a := runQuick(t, "swim", "Burst_TH")
	b := runQuick(t, "swim", "Burst_TH")
	if a.CPUCycles != b.CPUCycles || a.MemReads != b.MemReads || a.ReadLatency != b.ReadLatency {
		t.Fatalf("nondeterministic: %+v vs %+v", a.CPUCycles, b.CPUCycles)
	}
}

// TestBurstBeatsInOrder: the headline result at smoke scale — burst
// scheduling with the threshold beats the in-order baseline on a
// memory-intensive benchmark, via higher row hits and bus utilization.
func TestBurstBeatsInOrder(t *testing.T) {
	base := runQuick(t, "swim", "BkInOrder")
	burst := runQuick(t, "swim", "Burst_TH")
	if burst.CPUCycles >= base.CPUCycles {
		t.Fatalf("Burst_TH (%d cycles) did not beat BkInOrder (%d cycles)",
			burst.CPUCycles, base.CPUCycles)
	}
	if burst.RowHit <= base.RowHit {
		t.Errorf("row hit rate did not improve: %.3f vs %.3f", burst.RowHit, base.RowHit)
	}
	if burst.DataBusUtil <= base.DataBusUtil {
		t.Errorf("data bus utilization did not improve: %.3f vs %.3f",
			burst.DataBusUtil, base.DataBusUtil)
	}
}

// TestReadPreemptionLowersReadLatency on a latency-bound benchmark.
func TestReadPreemptionLowersReadLatency(t *testing.T) {
	plain := runQuick(t, "mcf", "Burst")
	rp := runQuick(t, "mcf", "Burst_RP")
	if rp.ReadLatency >= plain.ReadLatency {
		t.Fatalf("read preemption did not reduce read latency: %.1f vs %.1f",
			rp.ReadLatency, plain.ReadLatency)
	}
	if rp.WriteLatency <= plain.WriteLatency {
		t.Errorf("read preemption should lengthen write latency: %.1f vs %.1f",
			rp.WriteLatency, plain.WriteLatency)
	}
}

// TestPiggybackingControlsSaturation: on the write-heavy streaming
// benchmark, Burst_RP saturates the write queue far more than Burst_WP
// (paper Section 5.1).
func TestPiggybackingControlsSaturation(t *testing.T) {
	rp := runQuick(t, "swim", "Burst_RP")
	wp := runQuick(t, "swim", "Burst_WP")
	if rp.WriteSaturation <= wp.WriteSaturation {
		t.Fatalf("saturation: RP %.3f should exceed WP %.3f",
			rp.WriteSaturation, wp.WriteSaturation)
	}
	if wp.RowHit <= rp.RowHit {
		t.Errorf("WP row hits %.3f should exceed RP %.3f (write row locality)",
			wp.RowHit, rp.RowHit)
	}
}

// TestInOrderIsWorstCase: the serial Figure 1(a) scheduler is slower than
// the pipelined baseline.
func TestInOrderIsWorstCase(t *testing.T) {
	serial := runQuick(t, "swim", "InOrder")
	pipelined := runQuick(t, "swim", "BkInOrder")
	if serial.CPUCycles <= pipelined.CPUCycles {
		t.Fatalf("serial in-order (%d) should be slower than pipelined (%d)",
			serial.CPUCycles, pipelined.CPUCycles)
	}
}

// TestStepSystem: the steppable API advances and collects.
func TestStepSystem(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	factory, _ := MechanismByName("Burst")
	sys, err := NewSystem(quickConfig(), prof, factory)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sys.StepMemCycle()
	}
	if sys.MemCycle() != 1000 {
		t.Fatalf("mem cycle %d", sys.MemCycle())
	}
	res := sys.Collect("gzip")
	if res.MemCycles != 1000 || res.CPUCycles != 10_000 {
		t.Fatalf("collected %d/%d cycles", res.MemCycles, res.CPUCycles)
	}
}

// TestWarmupReducesColdStart: with warmup, the measured window no longer
// sees the cold-cache ramp (fewer reads per instruction than a cold run).
func TestWarmupReducesColdStart(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	factory, _ := MechanismByName("Burst")
	cold := quickConfig()
	cold.WarmupInstructions = 0
	coldRes, err := Run(cold, prof, factory)
	if err != nil {
		t.Fatal(err)
	}
	warmRes := runQuick(t, "gzip", "Burst")
	coldRate := float64(coldRes.MemReads) / float64(coldRes.Instructions)
	warmRate := float64(warmRes.MemReads) / float64(warmRes.Instructions+20_000)
	if warmRate >= coldRate*1.5 {
		t.Fatalf("warm read rate %.4f not below cold %.4f", warmRate, coldRate)
	}
}

// TestAllMechanismsAllProfilesSmoke runs every mechanism on a subset of
// profiles at tiny scale: everything must complete without error.
func TestAllMechanismsAllProfilesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix smoke test skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 5_000
	cfg.Instructions = 10_000
	for _, bench := range []string{"swim", "mcf", "gcc", "lucas"} {
		prof, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, mech := range append(MechanismNames(), "InOrder") {
			factory, err := MechanismByName(mech)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(cfg, prof, factory); err != nil {
				t.Errorf("%s/%s: %v", bench, mech, err)
			}
		}
	}
}

// TestCMPMultiCore: a 2-core system runs both cores to the target and
// aggregates retirement; memory pressure rises vs a single core.
func TestCMPMultiCore(t *testing.T) {
	cfg := quickConfig()
	cfg.Cores = 2
	prof, _ := workload.ByName("gcc")
	factory, _ := MechanismByName("Burst_TH")
	res, err := Run(cfg, prof, factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 2 {
		t.Fatalf("cores = %d", res.Cores)
	}
	if res.Instructions < 2*cfg.Instructions {
		t.Fatalf("aggregate instructions %d, want >= %d", res.Instructions, 2*cfg.Instructions)
	}
	single := quickConfig()
	sres, err := Run(single, prof, factory)
	if err != nil {
		t.Fatal(err)
	}
	perCore1 := float64(sres.Instructions) / float64(sres.CPUCycles)
	perCore2 := float64(res.Instructions) / 2 / float64(res.CPUCycles)
	if perCore2 >= perCore1 {
		t.Fatalf("per-core throughput did not drop under sharing: %.3f vs %.3f", perCore2, perCore1)
	}
	if res.MemReads <= sres.MemReads {
		t.Fatalf("2-core memory traffic %d not above 1-core %d", res.MemReads, sres.MemReads)
	}
}

// TestCMPValidation rejects absurd core counts.
func TestCMPValidation(t *testing.T) {
	cfg := quickConfig()
	cfg.Cores = 100
	if err := cfg.Validate(); err == nil {
		t.Fatal("100 cores accepted")
	}
}
