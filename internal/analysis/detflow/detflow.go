// Package detflow extends detlint across call boundaries: it flags calls
// from simulation packages to functions *outside* the simulation scope
// whose effect summaries transitively reach a nondeterminism source —
// wall-clock time, map iteration, process-seeded rand, or a goroutine
// spawn.
//
// detlint sees one package at a time, so a sim-scoped function that calls
// a helper in internal/stats (or anywhere else out of scope) which quietly
// does `for range m` is invisible to it: the range is legal where it
// lives, and the call looks like any other. detflow closes that hole with
// the interprocedural tier: it walks every function in a detlint-scoped
// package (detlint.SimPackages) and reports each call edge into an
// out-of-scope callee whose summary (internal/analysis/summary) carries a
// nondeterminism effect, with the call chain to the ultimate source in the
// message.
//
// The division of labour keeps every source reported exactly once:
//
//   - nondeterminism *inside* a scoped package — detlint, at the source;
//   - direct calls of time.Now / math/rand from scoped code — detlint, at
//     the call (edges to external callees are skipped here);
//   - nondeterminism *behind* an out-of-scope callee — detflow, at the
//     scope-boundary call site.
//
// Suppression uses the standard `//lint:ignore detflow <reason>` comment.
package detflow

import (
	"strings"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/callgraph"
	"burstmem/internal/analysis/detlint"
	"burstmem/internal/analysis/summary"
)

// Analyzer is the detflow pass.
var Analyzer = &analysis.Analyzer{
	Name:       "detflow",
	Doc:        "forbid calls from simulation packages that transitively reach nondeterminism sources",
	RunProgram: run,
}

// reached are the summary effect kinds detflow polices — the
// interprocedural mirror of detlint's four bans.
var reached = []summary.Kind{
	summary.WallClock, summary.MapRange, summary.GlobalRand, summary.Spawn,
}

func run(pass *analysis.ProgramPass) {
	set := summary.Of(pass.Prog)
	for _, fn := range set.Graph.Source {
		if !detlint.InSimScope(fn.Pkg.PkgPath) {
			continue
		}
		for _, e := range fn.Out {
			if e.Callee == nil || e.Callee.Body() == nil {
				// Dynamic calls are beyond CHA's reach; external callees
				// (time.Now itself, rand.Intn itself) are detlint's.
				continue
			}
			if detlint.InSimScope(e.Callee.Pkg.PkgPath) {
				// In-scope callees are checked at their own sources (detlint)
				// and their own boundary calls (this loop, when it reaches
				// them) — reporting here would flag every frame of the chain.
				continue
			}
			csum := set.Funcs[e.Callee.ID]
			if csum == nil {
				continue
			}
			for _, kind := range reached {
				eff, ok := csum.Effects[summary.Key{Kind: kind}]
				if !ok {
					continue
				}
				pass.Reportf(e.Pos, "call of %s reaches %s (%s): simulation logic must stay deterministic and single-threaded",
					e.Callee.Name, kind, chain(set, e.Callee, eff.Key))
			}
		}
	}
}

// chain renders the call path from the callee to the effect's ultimate
// source, e.g. "stats.Snapshot -> stats.keys".
func chain(set *summary.Set, callee *callgraph.Func, k summary.Key) string {
	parts := append([]string{callee.Name}, set.Path(callee.ID, k)...)
	return strings.Join(parts, " -> ")
}
