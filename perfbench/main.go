// Command perfbench is burstmem's repository benchmark. It measures the
// simulator's host speed on three workloads (BENCHMARK.json runs two of
// them; see README.md) and checks the simulated
// statistics, which are deterministic, against a recorded reference.
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 60 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 the per-layer split of a separately traced run. The last line of
// standard output is always one JSON object: correct, attempted, failed and
// metrics. See README.md for the workloads and what each metric means.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// defaultSeed reproduces the repository's built-in profile seeds; the
// reference digests are recorded for it.
const defaultSeed = 1

// Set-up is repeated at least minSetupReps times and for at least
// minSetupSeconds, at most maxSetupReps times; setup_s is the median.
const (
	minSetupReps    = 5
	maxSetupReps    = 101
	minSetupSeconds = 0.5
)

//go:embed reference.json
var referenceJSON []byte

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	record   string
}

// bench is one workload: set-up builds its inputs and machines, a pass runs
// its fixed unit of work once.
type bench interface {
	// setup generates the inputs from the seed and constructs every
	// machine of one pass (discarding them); it is what setup_s times.
	setup() error
	// pass runs the workload's unit of work once, untraced.
	pass() (*passResult, error)
	// tracedPass runs the same work through the traced loop; the
	// result carries the layer report.
	tracedPass() (*passResult, error)
}

// passResult summarises one pass.
type passResult struct {
	wall         time.Duration
	runs         []time.Duration // host time of each simulation
	loop         time.Duration   // summed simulation loops, construction excluded
	memCycles    uint64          // simulated memory cycles, warmup included
	instructions uint64          // simulated instructions retired, warmup included
	dramAccesses uint64          // DRAM reads+writes completed
	digests      map[string]string
	failures     []string // one line per simulation that failed a check
	attempted    int
	layers       *layerReport // traced passes only
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if opts.record != "" {
		if err := record(opts.record, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	b, err := newBench(opts.workload, opts.seed, fullSize)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	man := newManifest(opts)
	if line, err := json.Marshal(man); err == nil {
		fmt.Fprintf(stdout, "manifest %s\n", line)
	}
	var res *result
	if opts.trace {
		res, err = measureTraced(b, opts, ref, stderr)
	} else {
		res, err = measure(b, opts, ref, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printHuman(stdout, opts.workload, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var seconds, traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.IntVar(&seconds, "seconds", 60, "length of the measured phase, seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer split of a traced run")
	fs.StringVar(&o.record, "record", "", "write reference digests for the default seed to this file and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.record == "" && !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown workload %q (known: %v)", o.workload, workloadNames)
	}
	if seconds < 1 {
		return o, fmt.Errorf("seconds must be at least 1, got %d", seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("trace must be 0 or 1, got %d", traceFlag)
	}
	o.seconds = float64(seconds)
	o.trace = traceFlag == 1
	return o, nil
}

// measure is the untraced run: repeated set-ups, then passes for
// opts.seconds (a pass is not started if it would end more than half a pass
// late).
func measure(b bench, opts options, ref reference, stderr io.Writer) (*result, error) {
	setup, err := timeSetups(b)
	if err != nil {
		return nil, err
	}
	var passes []*passResult
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds()+passes[len(passes)-1].wall.Seconds()/2 < opts.seconds {
		p, err := b.pass()
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	c := checkPasses(passes, opts, ref)
	for _, f := range c.failures {
		fmt.Fprintln(stderr, "FAIL", f)
	}
	var walls, runs, cyc, ins, dram []float64
	for _, p := range passes {
		s := p.wall.Seconds()
		walls = append(walls, s)
		for _, r := range p.runs {
			runs = append(runs, r.Seconds())
		}
		cyc = append(cyc, float64(p.memCycles)/s)
		ins = append(ins, float64(p.instructions)/s)
		dram = append(dram, float64(p.dramAccesses)/s)
	}
	m := map[string]metric{
		"wall_s":              {median(walls), "s"},
		"setup_s":             {setup, "s"},
		"simcycles_per_s":     {median(cyc), "1/s"},
		"dram_accesses_per_s": {median(dram), "1/s"},
		"run_s_p50":           {quantile(runs, 0.50), "s"},
		"run_s_p90":           {quantile(runs, 0.90), "s"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
		"ok_frac":             {float64(c.attempted-c.failed) / float64(c.attempted), "fraction"},
	}
	fmt.Fprintf(stderr, "%s: %d passes, %d simulations, sim_minstr_per_s %.4f\n",
		opts.workload, len(passes), len(runs), median(ins)/1e6)
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

// timeSetups runs set-up repeatedly and returns the median seconds. Each
// repetition starts from a collected heap, so it does not pay for the
// garbage of the one before.
func timeSetups(b bench) (float64, error) {
	var ts []float64
	for start := time.Now(); len(ts) < maxSetupReps &&
		(len(ts) < minSetupReps || time.Since(start).Seconds() < minSetupSeconds); {
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// checkSummary counts simulations attempted and failed across passes.
type checkSummary struct {
	attempted, failed int
	failures          []string
}

// checkPasses applies the correctness checks: each simulation's own
// invariants (already in failures), identical digests in every pass, and,
// for the default seed, digests equal to the recorded reference.
func checkPasses(passes []*passResult, opts options, ref reference) checkSummary {
	var c checkSummary
	want := ref.forWorkload(opts.workload, opts.seed)
	for i, p := range passes {
		c.attempted += p.attempted
		c.failures = append(c.failures, p.failures...)
		failed := len(p.failures)
		for _, key := range sortedKeys(p.digests) {
			d := p.digests[key]
			var why string
			switch {
			case i > 0 && passes[0].digests[key] != d:
				why = fmt.Sprintf("%s: digest %s differs from the first pass's %s", key, d, passes[0].digests[key])
			case want != nil && want[key] != d:
				why = fmt.Sprintf("%s: digest %s differs from the reference %s", key, d, want[key])
			}
			if why != "" {
				c.failures = append(c.failures, why)
				failed++
			}
		}
		if want != nil && len(p.failures) == 0 && len(want) != len(p.digests) {
			c.failures = append(c.failures, fmt.Sprintf("pass %d produced %d digests, the reference has %d", i, len(p.digests), len(want)))
			failed++
		}
		c.failed += min(failed, p.attempted)
	}
	return c
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value (mean of the two middle values for even
// counts); 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics; 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func printHuman(w io.Writer, workload string, res *result) {
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%-16s %-36s %16.6g %s\n", workload, k, m.Value, m.Unit)
	}
}
