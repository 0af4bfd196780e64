package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"burstmem/internal/memctrl"
	"burstmem/internal/workload"
)

// smallPass runs one untraced pass of a test-sized workload.
func smallPass(t *testing.T, name string, seed int64) *passResult {
	t.Helper()
	b, err := newBench(name, seed, testSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.pass()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.failures) > 0 {
		t.Fatalf("%s: %v", name, p.failures)
	}
	return p
}

func TestRepeatedRunsGiveIdenticalDigests(t *testing.T) {
	for _, name := range workloadNames {
		a, b := smallPass(t, name, 7), smallPass(t, name, 7)
		if len(a.digests) == 0 {
			t.Fatalf("%s: no digests", name)
		}
		for k, d := range a.digests {
			if b.digests[k] != d {
				t.Errorf("%s %s: digest %s then %s", name, k, d, b.digests[k])
			}
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	lucas, err := workload.ByName("lucas")
	if err != nil {
		t.Fatal(err)
	}
	ops := func(seed int64) []workload.Op {
		p := lucas
		p.Seed = seededProfileSeed(p.Seed, seed)
		g := workload.MustNew(p)
		out := make([]workload.Op, 200)
		for i := range out {
			out[i] = g.Next()
		}
		return out
	}
	if a, b := ops(defaultSeed), ops(defaultSeed+1); slices.Equal(a, b) {
		t.Error("profile streams do not depend on the seed")
	}
	if a, b := ops(defaultSeed), ops(defaultSeed); !slices.Equal(a, b) {
		t.Error("profile stream is not reproducible")
	}
	if seededProfileSeed(lucas.Seed, defaultSeed) != lucas.Seed {
		t.Error("the default seed must keep the built-in profile seed")
	}
	geo := memctrl.DefaultConfig().Geometry
	s1, s2 := genStream(1, 500, geo), genStream(2, 500, geo)
	same := 0
	for i := range s1 {
		if s1[i] == s2[i] {
			same++
		}
	}
	if same == len(s1) {
		t.Error("ctrl-mixed stream does not depend on the seed")
	}
	if again := genStream(1, 500, geo); !slices.Equal(s1, again) {
		t.Error("ctrl-mixed stream is not reproducible")
	}
}

func TestTracedLoopReproducesUntracedStatistics(t *testing.T) {
	for _, name := range workloadNames {
		b, err := newBench(name, 3, testSize)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := b.pass()
		if err != nil {
			t.Fatal(err)
		}
		traced, err := b.tracedPass()
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.failures)+len(traced.failures) > 0 {
			t.Fatalf("%s: %v %v", name, plain.failures, traced.failures)
		}
		for k, d := range plain.digests {
			if traced.digests[k] != d {
				t.Errorf("%s %s: untraced %s, traced %s", name, k, d, traced.digests[k])
			}
		}
		var self float64
		for _, v := range traced.layers.selfNS {
			self += v
		}
		if wall := traced.layers.wallNS; math.Abs(self-wall) > 1e-6*wall {
			t.Errorf("%s: self times add up to %.0f ns, traced time is %.0f ns", name, self, wall)
		}
	}
}

func TestReferenceCoversEveryWorkload(t *testing.T) {
	ref, err := loadReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		b, err := newBench(name, ref.Seed, fullSize)
		if err != nil {
			t.Fatal(err)
		}
		var want int
		switch b := b.(type) {
		case *fullSystem:
			want = len(b.profiles) * len(b.mechs)
		case *ctrlMixed:
			want = len(b.mechs)
		}
		if got := len(ref.forWorkload(name, ref.Seed)); got != want {
			t.Errorf("%s: reference has %d digests, the workload runs %d simulations", name, got, want)
		}
	}
}

func TestLucasMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation")
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench("lucas-frontend", ref.Seed, fullSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.pass()
	if err != nil {
		t.Fatal(err)
	}
	c := checkPasses([]*passResult{p}, options{workload: "lucas-frontend", seed: ref.Seed}, ref)
	if c.failed != 0 {
		t.Fatal(c.failures)
	}
}

func TestProfileSharesSumToOne(t *testing.T) {
	b, err := newBench("ctrl-mixed", 5, testSize)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := profileShares(func() error {
		for i := 0; i < 20; i++ {
			if _, err := b.pass(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Skip("profile too short to sample:", err)
	}
	var total float64
	for g, v := range shares {
		if packageGroup[g] == "" {
			t.Errorf("unknown group %q", g)
		}
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v", total)
	}
}

func TestShareGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"burstmem/internal/cache.(*Cache).AccessLoad":  "cache",
		"burstmem/internal/memctrl.(*Controller).Tick": "memctrl",
		"runtime.mallocgc":                     "runtime",
		"runtime/internal/atomic.Load":         "runtime",
		"main.(*ctrlMixed).runMech":            "other",
		"burstmem/internal/parsim.(*Pool).Run": "other",
	} {
		if got := shareGroup(fn); got != want {
			t.Errorf("shareGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestOutputMatchesBenchmarkJSON runs the command on the cheapest workload
// and checks that its last line carries exactly the metrics BENCHMARK.json
// declares, with their units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size run")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "ctrl-mixed", "--seed", "4", "--seconds", "1", "--trace", trace}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d: %s", trace, res.Correct, res.Attempted, res.Failed, errOut.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
		}
		for _, w := range want {
			if m, ok := res.Metrics[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, w.Name, m, w.Unit)
			}
		}
	}
}
