package memctrl

// Deterministic parallel channel execution. One memory-controller Tick has
// four phases:
//
//	A. drain due completions (fires OnComplete callbacks into the CPU/cache
//	   domain) — controller goroutine;
//	B. per-channel device + mechanism tick — independent across channels
//	   (all state reached here is //burstmem:chanlocal per the sharestate
//	   gate), so it runs on the parsim worker pool, one shard per channel,
//	   inside one barrier round per memory cycle;
//	C. canonical merge — per-shard completion buffers flush into the shared
//	   heap and per-shard trace captures replay into the main tracer, both
//	   in ascending channel order, reproducing the serial loop's exact heap
//	   push order and trace stream;
//	D. per-cycle statistics sampling — controller goroutine.
//
// Everything a shard reads besides its own channel state (pool occupancy
// counters, configuration) is constant during phase B: submissions arrive
// only via FSB.Tick after Controller.Tick returns, and completions mutate
// the pool only in phase A. The pool barrier orders phase A writes before
// shard reads and shard writes before the phase C merge, so the parallel
// path is free of data races and produces bit-identical output — which the
// differential test tier in internal/sim asserts, byte for byte.

import (
	"burstmem/internal/parsim"
	"burstmem/internal/trace"
)

// parRun is the controller's channel-shard coordinator, present only while
// a worker pool is attached (SetWorkers >= 2 with >= 2 channels, or — rank
// mode — a single channel whose mechanism supports hint prewarming).
//
//burstmem:shared coordinator state: written only by the controller goroutine between barrier rounds; shards read now/to/caps inside a round, ordered by the pool's generation barrier
type parRun struct {
	pool *parsim.Pool
	// now/to bound the cycles of the in-flight barrier round, published to
	// shards by Pool.Run's generation release: a per-cycle round ticks just
	// `now` (to == now+1); a window round ticks [now, to).
	now uint64
	to  uint64
	// caps are the per-channel capture tracers shards emit into while the
	// main tracer is attached; replayed and cleared in phase C.
	caps []*trace.Tracer
	// rankMode marks the single-channel rank-sharded configuration: rounds
	// prewarm the engine's bank-hint cache per rank shard, and the channel
	// itself ticks serially on the controller goroutine afterwards.
	rankMode bool
	// rounds counts barrier crossings (Pool.Run calls) — the denominator
	// the skip-window batching shrinks; exported via BarrierRounds.
	rounds uint64
	// windows/windowCycles/skipCycles break the batched cycles down for
	// the idle-phase crossing metric: each TickWindow costs one round for
	// windowCycles/windows cycles on average, and AccountSkipped cycles
	// cost none at all. Exported via WindowStats.
	windows      uint64
	windowCycles uint64
	skipCycles   uint64
}

// RankPrewarmer is the optional Mechanism extension enabling rank-sharded
// parallelism on single-channel configurations: PrewarmRanks(lo, hi)
// refreshes any per-bank scheduling caches for ranks [lo, hi) without
// touching state outside that rank range, so disjoint ranges are safe to
// run concurrently. Mechanisms built on the engine delegate to
// Engine.PrewarmRanks, which has nothing left to do since the engine's
// bounds became exact (its dirty marks are consumed serially by sync).
type RankPrewarmer interface {
	PrewarmRanks(lo, hi int)
}

// SetWorkers attaches (n >= 2) or detaches (n <= 1) a parallel worker pool.
// With multiple channels the pool runs one shard per channel (n clamped to
// the channel count). With a single channel, rank sharding applies instead
// when the mechanism implements RankPrewarmer and the geometry has at least
// two ranks: shards prewarm per-rank scheduling caches and the channel
// ticks serially — so the paper's single-channel tables get parallelism at
// all. Otherwise the controller stays serial. Calling it again replaces the
// pool (workers of the old pool are released), so worker count may change
// between any two Ticks — output is bit-identical for every setting,
// including mid-run changes. Not safe to call from inside a Tick.
func (c *Controller) SetWorkers(n int) {
	if c.par != nil {
		c.par.pool.Close()
		c.par = nil
	}
	if n <= 1 {
		return
	}
	if len(c.channels) <= 1 {
		rp, ok := c.mechs[0].(RankPrewarmer)
		ranks := c.cfg.Geometry.Ranks
		if !ok || ranks < 2 {
			return
		}
		c.par = &parRun{
			pool: parsim.New(n, ranks, func(r int) {
				rp.PrewarmRanks(r, r+1)
			}),
			rankMode: true,
		}
		return
	}
	caps := make([]*trace.Tracer, len(c.channels))
	for i := range caps {
		caps[i] = trace.NewCapture()
	}
	c.par = &parRun{
		pool: parsim.New(n, len(c.channels), c.tickShard),
		caps: caps,
	}
}

// BarrierRounds returns how many worker-pool barrier rounds the parallel
// coordinator has crossed (0 on the serial path). Without windows every
// ticked cycle costs one round; TickWindow collapses a whole window into
// one, which is the ratio the barrier_crossings_per_kcycle benchmark
// metric tracks.
func (c *Controller) BarrierRounds() uint64 {
	if c.par == nil {
		return 0
	}
	return c.par.rounds
}

// WindowStats reports how the batched idle-phase cycles were covered:
// `windows` TickWindow batches spanning `windowCycles` memory cycles in
// total, plus `skipCycles` cycles fast-forwarded with no barrier at all
// (AccountSkipped). Per-cycle barrier rounds would have cost
// windowCycles+skipCycles crossings for the same span; the batched path
// costs `windows`. All zero on the serial path.
func (c *Controller) WindowStats() (windows, windowCycles, skipCycles uint64) {
	if c.par == nil {
		return 0, 0, 0
	}
	return c.par.windows, c.par.windowCycles, c.par.skipCycles
}

// Workers returns the effective parallel worker count (1 on the serial
// path).
func (c *Controller) Workers() int {
	if c.par == nil {
		return 1
	}
	return c.par.pool.Workers()
}

// tickShard advances one channel's device model and mechanism through the
// round's cycle span [par.now, par.to) — the parallel twin of the serial
// loop body in Tick (one cycle per round) and TickWindow (a whole window
// per round). It runs on a pool worker; everything it reaches is either
// channel-local or read-only for the duration of the barrier round.
//
//burstmem:hotpath
func (c *Controller) tickShard(i int) {
	ch, mech := c.channels[i], c.mechs[i]
	for cyc, to := c.par.now, c.par.to; cyc < to; cyc++ {
		ch.Tick(cyc)
		mech.Tick(cyc)
	}
}

// runShardRound swaps tracer/completion routing to the per-shard buffers,
// crosses one barrier round over the cycle span [from, to), and swaps the
// routing back. The caller merges the buffered effects afterwards.
//
//burstmem:hotpath
func (c *Controller) runShardRound(from, to uint64) (traced bool) {
	p := c.par
	traced = c.tracer != nil
	if traced {
		// Route shard-side emits (device commands, access starts,
		// scheduling marks) into per-channel captures for the round.
		for i, h := range c.hosts {
			h.tr = p.caps[i]
			c.channels[i].SetTracer(p.caps[i], i)
		}
	}
	for _, h := range c.hosts {
		h.buffered = true
	}
	p.now, p.to = from, to
	p.rounds++
	p.pool.Run()
	for _, h := range c.hosts {
		h.buffered = false
	}
	if traced {
		for i, h := range c.hosts {
			h.tr = c.tracer
			c.channels[i].SetTracer(c.tracer, i)
		}
	}
	return traced
}

// tickChannelsParallel runs phase B on the worker pool and then merges the
// per-shard effects in canonical channel order (phase C).
//
//burstmem:hotpath
func (c *Controller) tickChannelsParallel(now uint64) {
	p := c.par
	traced := c.runShardRound(now, now+1)
	// Canonical merge in ascending channel order — exactly the order the
	// serial loop produces trace events and heap pushes in.
	for i, h := range c.hosts {
		if traced {
			c.tracer.Adopt(p.caps[i])
		}
		for _, pc := range h.pending {
			c.completions.push(pc.completion)
		}
		h.pending = h.pending[:0]
		h.pendCur = 0
	}
}

// tickWindowParallel runs one barrier round over the whole window
// [from, to) and then merges the per-shard effects cycle-major: for each
// window cycle, every channel's trace events stamped at that cycle replay
// in channel order and its completions pushed at that cycle flush into the
// heap, followed by the cycle's statistics sample — the exact emission
// order of the serial per-cycle loop, so equal-time heap tie-breaks and
// interval metric folds are bit-identical. The caller (TickWindow)
// guarantees no completion fires and no submission arrives inside the
// window, which is what makes the once-per-window barrier exact: nothing a
// shard could observe mid-window ever changes mid-window.
//
//burstmem:hotpath
func (c *Controller) tickWindowParallel(from, to uint64) {
	p := c.par
	traced := c.runShardRound(from, to)
	for cyc := from; cyc < to; cyc++ {
		for i, h := range c.hosts {
			if traced {
				c.tracer.AdoptUpTo(p.caps[i], cyc)
			}
			for h.pendCur < len(h.pending) && h.pending[h.pendCur].pushed <= cyc {
				c.completions.push(h.pending[h.pendCur].completion)
				h.pendCur++
			}
		}
		c.samplePhase(cyc)
	}
	for _, h := range c.hosts {
		h.pending = h.pending[:0]
		h.pendCur = 0
	}
	c.now = to - 1
}
