// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs: an
// Analyzer runs over one type-checked package at a time and reports
// position-stamped diagnostics.
//
// The framework exists because the simulator's performance and correctness
// properties — deterministic iteration, an allocation-free scheduling hot
// path, exhaustive handling of protocol enums — are invariants of the code
// itself, not of any one test input. cmd/burstlint wires the analyzers in
// this tree (detlint, hotalloc, exhaustive) into one multichecker; see
// DESIGN.md "Verification & static analysis".
//
// Suppression: a diagnostic is suppressed by a comment of the form
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line immediately above it. The reason is
// mandatory — an ignore without one does not suppress.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer describes one static check. Exactly one of Run and RunProgram
// is set: Run analyzers see one package at a time, RunProgram analyzers
// see the whole loaded program at once (the interprocedural tier —
// callgraph-backed passes like detflow and goroutcheck need every function
// body before they can say anything about any of them).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the check over one package, reporting findings through
	// pass.Report.
	Run func(pass *Pass)
	// RunProgram executes the check once over all loaded packages.
	RunProgram func(pass *ProgramPass)
}

// Pass is the interface between one Analyzer run and one loaded package.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Chain is the evidence trail behind interprocedural findings — a
	// call path, an alias chain — one hop per element, outermost first.
	// The text renderer leaves it to the message; burstlint -json carries
	// it as a structured field.
	Chain []string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Program is the whole loaded program: every analyzable package plus a
// keyed result cache shared by the interprocedural analyzers, so the call
// graph and effect summaries are built once per process no matter how many
// passes consume them.
type Program struct {
	Fset *token.FileSet
	// Pkgs are the cleanly loaded packages, in load order.
	Pkgs []*Package
	// Broken are the packages with load errors; they are excluded from
	// analysis (their ASTs and type info may be partial) and their errors
	// are reported instead.
	Broken []*Package

	cache map[string]any
	// Timings records, per cache key, how long the build function took —
	// scripts/bench.sh charts the interprocedural share of burstlint's
	// wall time from this.
	Timings map[string]time.Duration
}

// NewProgram partitions loaded packages into analyzable and broken. All
// packages from one Load share one FileSet; a Program from zero packages
// has a nil Fset.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{cache: map[string]any{}, Timings: map[string]time.Duration{}}
	for _, pkg := range pkgs {
		p.Fset = pkg.Fset
		if len(pkg.Errors) > 0 {
			p.Broken = append(p.Broken, pkg)
			continue
		}
		p.Pkgs = append(p.Pkgs, pkg)
	}
	return p
}

// Cached returns the value under key, invoking build at most once per
// Program. This is the summary-cache: callgraph + summary construction is
// the expensive half of the interprocedural tier, and detflow, goroutcheck
// and leakcheck all read the same build through this choke point.
func (p *Program) Cached(key string, build func() any) any {
	if v, ok := p.cache[key]; ok {
		return v
	}
	start := time.Now()
	v := build()
	p.Timings[key] = time.Since(start)
	p.cache[key] = v
	return v
}

// ProgramPass is the interface between one RunProgram analyzer and the
// whole program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportChainf records a diagnostic carrying an evidence chain.
func (p *ProgramPass) ReportChainf(pos token.Pos, chain []string, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// Run executes the analyzers over the loaded packages and returns the
// surviving (non-suppressed) diagnostics sorted by position. A package
// that failed to load contributes its load errors as diagnostics and is
// not analyzed — its ASTs and type information may be partial, and every
// analyzer here assumes both are whole.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return NewProgram(pkgs).Run(analyzers)
}

// Run executes the analyzers — the per-package tier first, then the
// whole-program tier — and returns surviving diagnostics sorted by
// position. Callers that need the Program afterwards (burstlint's -timing
// flag reads Timings) construct it explicitly via NewProgram.
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Broken {
		out = append(out, pkg.Errors...)
	}
	ign := ignoreSet{}
	for _, pkg := range prog.Pkgs {
		collectIgnores(pkg, ign)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			a.Run(pass)
			for _, d := range pass.diags {
				if !ign.suppressed(a.Name, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	if len(prog.Pkgs) > 0 {
		for _, a := range analyzers {
			if a.RunProgram == nil {
				continue
			}
			pass := &ProgramPass{Analyzer: a, Prog: prog}
			a.RunProgram(pass)
			for _, d := range pass.diags {
				if !ign.suppressed(a.Name, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ignoreKey locates one //lint:ignore directive: which analyzer it silences
// and the line it sits on (it covers that line and the next).
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

type ignoreSet map[ignoreKey]bool

// collectIgnores scans a package's comments for //lint:ignore directives,
// adding them to set (one merged set serves both analyzer tiers: a program
// analyzer's diagnostic may land in any package).
func collectIgnores(pkg *Package, set ignoreSet) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue // reason is mandatory
				}
				pos := pkg.Fset.Position(c.Pos())
				set[ignoreKey{pos.Filename, pos.Line, fields[0]}] = true
			}
		}
	}
}

// suppressed reports whether a directive on the diagnostic's line or the
// line above covers it.
func (s ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	return s[ignoreKey{pos.Filename, pos.Line, analyzer}] ||
		s[ignoreKey{pos.Filename, pos.Line - 1, analyzer}]
}
