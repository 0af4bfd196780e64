package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"burstmem/internal/memctrl"
	"burstmem/internal/sim"
	"burstmem/internal/stats"
	"burstmem/internal/workload"
)

// workloadNames lists every workload. BENCHMARK.json runs paper-grid and
// ctrl-mixed; lucas-frontend is run by hand (README.md explains why).
var workloadNames = []string{"paper-grid", "lucas-frontend", "ctrl-mixed"}

// size selects the amount of work per pass: fullSize for measurement,
// testSize for the benchmark's own tests.
type size int

const (
	fullSize size = iota
	testSize
)

func newBench(name string, seed int64, sz size) (bench, error) {
	switch name {
	case "paper-grid":
		n := uint64(20_000)
		if sz == testSize {
			n = 1_000
		}
		return &fullSystem{
			seed: seed, cfg: simConfig(n), profiles: workload.Names(),
			mechs: sim.MechanismNames(), workers: runtime.GOMAXPROCS(0),
		}, nil
	case "lucas-frontend":
		n := uint64(300_000)
		if sz == testSize {
			n = 5_000
		}
		return &fullSystem{
			seed: seed, cfg: simConfig(n), profiles: []string{"lucas"},
			mechs: []string{"Burst_TH"}, workers: 1,
		}, nil
	case "ctrl-mixed":
		n := 40_000
		if sz == testSize {
			n = 2_000
		}
		return &ctrlMixed{seed: seed, accesses: n, mechs: sim.MechanismNames()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// simConfig is the Table 3 machine with n warmup and n measured
// instructions.
func simConfig(n uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstructions = n
	cfg.Instructions = n
	return cfg
}

// seededProfileSeed derives a profile's generator seed from the benchmark
// seed; the default seed keeps the built-in one.
func seededProfileSeed(builtin uint64, seed int64) uint64 {
	return builtin + uint64(seed-defaultSeed)*0x9E3779B97F4A7C15
}

// fullSystem runs whole-machine simulations (CPU, caches, FSB, controller)
// of every profile x mechanism through sim.RunSystem on a worker pool.
type fullSystem struct {
	seed     int64
	cfg      sim.Config
	profiles []string
	mechs    []string
	workers  int

	jobs []job // built by setup
}

// job is one simulation of the pass.
type job struct {
	key     string // profile/mechanism
	mech    string
	prof    workload.Profile
	factory memctrl.Factory
}

// jobOut is one simulation's measurements and check outcome.
type jobOut struct {
	dur          time.Duration // construction and simulation
	loop         time.Duration // simulation alone
	memCycles    uint64
	instructions uint64
	dramAccesses uint64
	digest       string
	failure      string // empty when every check passed
	layers       *layerReport
}

func (f *fullSystem) makeJobs() ([]job, error) {
	var jobs []job
	for _, name := range f.profiles {
		prof, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		prof.Seed = seededProfileSeed(prof.Seed, f.seed)
		for _, mech := range f.mechs {
			factory, err := sim.MechanismByName(mech)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job{key: name + "/" + mech, mech: mech, prof: prof, factory: factory})
		}
	}
	return jobs, nil
}

func (f *fullSystem) setup() error {
	jobs, err := f.makeJobs()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if _, err := sim.NewSystem(f.cfg, j.prof, j.factory); err != nil {
			return fmt.Errorf("%s: %w", j.key, err)
		}
	}
	f.jobs = jobs
	return nil
}

func (f *fullSystem) pass() (*passResult, error) {
	return f.runPass(f.runJob)
}

func (f *fullSystem) tracedPass() (*passResult, error) {
	return f.runPass(f.runTracedJob)
}

// runPass runs every job once on the worker pool.
func (f *fullSystem) runPass(runJob func(job) jobOut) (*passResult, error) {
	if f.jobs == nil {
		if err := f.setup(); err != nil {
			return nil, err
		}
	}
	outs := make([]jobOut, len(f.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < max(1, f.workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(f.jobs) {
					return
				}
				outs[i] = runJob(f.jobs[i])
			}
		}()
	}
	wg.Wait()
	p := &passResult{wall: time.Since(t0), digests: map[string]string{}, attempted: len(f.jobs)}
	for i, o := range outs {
		key := f.jobs[i].key
		p.runs = append(p.runs, o.dur)
		p.loop += o.loop
		p.memCycles += o.memCycles
		p.instructions += o.instructions
		p.dramAccesses += o.dramAccesses
		if o.failure != "" {
			p.failures = append(p.failures, key+": "+o.failure)
			continue
		}
		p.digests[key] = o.digest
		if o.layers != nil {
			if p.layers == nil {
				p.layers = newLayerReport()
			}
			p.layers.merge(o.layers)
		}
	}
	return p, nil
}

// runJob is one untraced simulation, exactly as sim.Run performs it.
func (f *fullSystem) runJob(j job) jobOut {
	t0 := time.Now()
	sys, err := sim.NewSystem(f.cfg, j.prof, j.factory)
	if err != nil {
		return jobOut{failure: err.Error()}
	}
	t1 := time.Now()
	res, err := sim.RunSystem(f.cfg, sys, j.prof.Name)
	dur := time.Since(t0)
	if err != nil {
		return jobOut{dur: dur, failure: err.Error()}
	}
	o := f.finishJob(sys, res, dur, sys.MemCycle())
	o.loop = time.Since(t1)
	return o
}

// finishJob checks a finished simulation and summarises it.
func (f *fullSystem) finishJob(sys *sim.System, res sim.Result, dur time.Duration, memCycles uint64) jobOut {
	o := jobOut{dur: dur, memCycles: memCycles, instructions: sys.MinRetired()}
	for i := 0; i < sys.Ctrl.Channels(); i++ {
		st := sys.Ctrl.Channel(i).Stats
		o.dramAccesses += st.Reads + st.Writes
	}
	if res.Instructions < f.cfg.Instructions {
		o.failure = fmt.Sprintf("retired %d of %d measured instructions", res.Instructions, f.cfg.Instructions)
		return o
	}
	o.digest = digestResult(res)
	return o
}

// digestResult hashes every simulated statistic of a result: all scalar
// and substructure fields, plus the occupancy histograms' buckets.
func digestResult(r sim.Result) string {
	h := sha256.New()
	hists := []*stats.Histogram{r.OutstandingReads, r.OutstandingWrites}
	r.OutstandingReads, r.OutstandingWrites = nil, nil
	fmt.Fprintf(h, "%+v", r)
	var buf [8]byte
	for _, hg := range hists {
		if hg == nil {
			h.Write([]byte("nil"))
			continue
		}
		for i := 0; i < hg.Size(); i++ {
			binary.LittleEndian.PutUint64(buf[:], hg.Count(i))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
