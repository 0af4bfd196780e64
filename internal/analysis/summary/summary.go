// Package summary computes per-function effect summaries over the call
// graph: what package-level state a function writes (directly or through
// anything it calls), which struct fields it mutates through pointers,
// whether it transitively reaches a nondeterminism source (wall-clock
// time, map iteration, process-seeded rand), spawns goroutines, lets
// caller-supplied pointers escape into globals, or calls through function
// values the graph cannot resolve.
//
// Summaries are computed bottom-up over the strongly connected components
// of the call graph: a function's summary is its direct effects joined
// with the summaries of everything it calls, and mutually recursive
// components iterate to a fixed point. The lattice is a map from effect
// key (kind + target) to a provenance record; join is set union with a
// deterministic tie-break (smallest source position wins), so the fixed
// point is unique and diagnostics built on it never depend on iteration
// order.
//
// What counts as a write: assignments, inc/dec and range-clause
// assignments whose destination is a package-level variable (GlobalWrite)
// or a struct field reached through a pointer (FieldWrite, keyed
// "pkgpath.Type.field"; a whole-value store through a pointer dereference
// is keyed "pkgpath.Type.*"). Writes that provably stay inside the
// function — fields of a non-pointer local reached without crossing a
// pointer, slice or map — are not effects. Writes into the elements of a
// local slice/map variable are a known blind spot (the backing store may
// alias anything).
//
// External callees (export data only — the stdlib) are assumed effect-free
// except for the explicit nondeterminism table: time.Now/Since/Until and
// anything in math/rand or math/rand/v2. This matches detlint's source
// list; the rest of the stdlib the simulator uses (fmt, sort, strings...)
// is deterministic and writes no simulator state.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"burstmem/internal/analysis"
	"burstmem/internal/analysis/callgraph"
)

// Kind classifies one effect.
type Kind uint8

// Effect kinds.
const (
	// GlobalWrite: a package-level variable is written. Target is
	// "pkgpath.varname".
	GlobalWrite Kind = iota
	// FieldWrite: a struct field is written through a pointer. Target is
	// "pkgpath.Type.field" ("pkgpath.Type.*" for whole-value stores).
	FieldWrite
	// GlobalEscape: a parameter- or receiver-derived pointer is stored
	// into a package-level variable. Target is the variable's ID.
	GlobalEscape
	// WallClock: time.Now/Since/Until is reached.
	WallClock
	// MapRange: a `for range` over a map is reached.
	MapRange
	// GlobalRand: math/rand or math/rand/v2 is reached.
	GlobalRand
	// Spawn: a goroutine is launched.
	Spawn
	// DynamicCall: a call through a function value the call graph cannot
	// resolve.
	DynamicCall
	// ProcExit: os.Exit or a fatal logger is reached — the process may
	// terminate without running the pending defers of calling frames.
	ProcExit
)

func (k Kind) String() string {
	switch k {
	case GlobalWrite:
		return "global write"
	case FieldWrite:
		return "field write"
	case GlobalEscape:
		return "escape to global"
	case WallClock:
		return "wall-clock time"
	case MapRange:
		return "map iteration"
	case GlobalRand:
		return "process-seeded rand"
	case Spawn:
		return "goroutine spawn"
	case DynamicCall:
		return "unresolved dynamic call"
	case ProcExit:
		return "process exit"
	}
	return "?"
}

// Key identifies one effect within a summary.
type Key struct {
	Kind   Kind
	Target string // "" for kinds without a target
}

// Effect is one summarized fact with provenance.
type Effect struct {
	Key
	// Pos is the ultimate source site (the assignment, the range clause,
	// the time.Now call), wherever in the call tree it lives.
	Pos token.Pos
	// Via is the immediate callee the effect was inherited from (""
	// when the effect is direct), CallPos the inheriting call site.
	Via     callgraph.ID
	CallPos token.Pos
}

// Summary is one function's fixed-point effect set.
type Summary struct {
	Fn      *callgraph.Func
	Effects map[Key]Effect
}

// Sorted returns the effects ordered by (kind, target) — the iteration
// order for reporting.
func (s *Summary) Sorted() []Effect {
	out := make([]Effect, 0, len(s.Effects))
	for _, e := range s.Effects {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// Set holds every function's summary plus the graph it was computed over.
type Set struct {
	Graph *callgraph.Graph
	Funcs map[callgraph.ID]*Summary
}

// Of returns the program's summaries, computing them once per Program
// (the summary-cache: detflow, goroutcheck and leakcheck all share this
// build, which also keeps burstlint's wall time flat as analyzers stack).
func Of(prog *analysis.Program) *Set {
	return prog.Cached("summary", func() any {
		return build(prog)
	}).(*Set)
}

func build(prog *analysis.Program) *Set {
	g := callgraph.Build(prog)
	set := &Set{Graph: g, Funcs: map[callgraph.ID]*Summary{}}
	for _, fn := range g.Source {
		set.Funcs[fn.ID] = &Summary{Fn: fn, Effects: direct(fn)}
	}
	// Bottom-up over SCCs; iterate each component to its fixed point.
	for _, comp := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, fn := range comp {
				if set.propagate(fn) {
					changed = true
				}
			}
		}
	}
	return set
}

// propagate joins callee summaries into fn's; reports whether fn changed.
func (set *Set) propagate(fn *callgraph.Func) bool {
	sum := set.Funcs[fn.ID]
	changed := false
	for _, e := range fn.Out {
		if e.Callee == nil {
			continue
		}
		csum := set.Funcs[e.Callee.ID]
		if csum == nil {
			continue // external: effect-free beyond the nondet table
		}
		for k, ce := range csum.Effects {
			cand := Effect{Key: k, Pos: ce.Pos, Via: e.Callee.ID, CallPos: e.Pos}
			if merge(sum.Effects, cand) {
				changed = true
			}
		}
	}
	return changed
}

// merge inserts cand unless an equal-or-smaller record already holds the
// key. Ordering by (Pos, CallPos, Via) makes the fixed point independent
// of map iteration order.
func merge(effects map[Key]Effect, cand Effect) bool {
	cur, ok := effects[cand.Key]
	if ok && !less(cand, cur) {
		return false
	}
	effects[cand.Key] = cand
	return true
}

func less(a, b Effect) bool {
	if a.Pos != b.Pos {
		return a.Pos < b.Pos
	}
	if a.CallPos != b.CallPos {
		return a.CallPos < b.CallPos
	}
	return a.Via < b.Via
}

// Path renders the call chain from fn to the ultimate source of the
// keyed effect: the short names of the Via links, in call order. Empty
// for direct effects.
func (set *Set) Path(id callgraph.ID, k Key) []string {
	var out []string
	seen := map[callgraph.ID]bool{}
	for {
		sum := set.Funcs[id]
		if sum == nil {
			return out
		}
		e, ok := sum.Effects[k]
		if !ok || e.Via == "" || seen[e.Via] {
			return out
		}
		seen[e.Via] = true
		if via := set.Funcs[e.Via]; via != nil {
			out = append(out, via.Fn.Name)
		} else {
			out = append(out, string(e.Via))
		}
		id = e.Via
	}
}

// nondetExternals maps external callee IDs (and ID prefixes) to effects.
func externalEffect(id callgraph.ID) (Kind, bool) {
	switch id {
	case "time.Now", "time.Since", "time.Until":
		return WallClock, true
	case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln":
		return ProcExit, true
	}
	s := string(id)
	if strings.HasPrefix(s, "math/rand.") || strings.HasPrefix(s, "math/rand/v2.") {
		return GlobalRand, true
	}
	return 0, false
}

// direct extracts one function's own effects: writes and ranges from its
// AST (nested literal bodies excluded — literals are separate nodes whose
// effects arrive through Lit/Static/Spawn edges), nondeterminism and
// dynamic calls from its resolved edges.
func direct(fn *callgraph.Func) map[Key]Effect {
	effects := map[Key]Effect{}
	for _, e := range fn.Out {
		if e.Callee == nil {
			merge(effects, Effect{Key: Key{Kind: DynamicCall}, Pos: e.Pos})
			continue
		}
		if k, ok := externalEffect(e.Callee.ID); ok {
			merge(effects, Effect{Key: Key{Kind: k}, Pos: e.Pos})
		}
	}
	body := fn.Body()
	if body == nil {
		return effects
	}
	info := fn.Pkg.TypesInfo
	pkgScope := fn.Pkg.Types.Scope()
	w := &walker{effects: effects, info: info, pkgScope: pkgScope, pkgPath: fn.Pkg.PkgPath}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own node
		case *ast.GoStmt:
			merge(effects, Effect{Key: Key{Kind: Spawn}, Pos: n.Pos()})
			return true
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				// New variables; RHS may still contain writes via calls,
				// which edges cover.
				return true
			}
			for i, lhs := range n.Lhs {
				if t, ok := w.writeTarget(lhs); ok {
					merge(effects, Effect{Key: t, Pos: lhs.Pos()})
					if t.Kind == GlobalWrite && i < len(n.Rhs) && w.escapes(n.Rhs[i], fn) {
						merge(effects, Effect{Key: Key{Kind: GlobalEscape, Target: t.Target}, Pos: lhs.Pos()})
					}
				}
			}
			return true
		case *ast.IncDecStmt:
			if t, ok := w.writeTarget(n.X); ok {
				merge(effects, Effect{Key: t, Pos: n.X.Pos()})
			}
			return true
		case *ast.RangeStmt:
			if tv := info.Types[n.X]; tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					merge(effects, Effect{Key: Key{Kind: MapRange}, Pos: n.Pos()})
				}
			}
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e == nil {
						continue
					}
					if t, ok := w.writeTarget(e); ok {
						merge(effects, Effect{Key: t, Pos: e.Pos()})
					}
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
	return effects
}

// walker classifies write destinations against one package's type info.
type walker struct {
	effects  map[Key]Effect
	info     *types.Info
	pkgScope *types.Scope
	pkgPath  string
}

// writeTarget classifies an assignment destination. ok is false for
// blank identifiers, locals, and local-value field chains.
func (w *walker) writeTarget(lhs ast.Expr) (Key, bool) {
	switch lhs := unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return Key{}, false
		}
		if v := w.globalVar(lhs); v != nil {
			return Key{Kind: GlobalWrite, Target: varID(v)}, true
		}
		return Key{}, false
	case *ast.SelectorExpr:
		// Qualified global: pkg.Var = ...
		if id, ok := lhs.X.(*ast.Ident); ok {
			if _, isPkg := w.info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := w.info.Uses[lhs.Sel].(*types.Var); ok {
					return Key{Kind: GlobalWrite, Target: varID(v)}, true
				}
				return Key{}, false
			}
		}
		sel, ok := w.info.Selections[lhs]
		if !ok || sel.Kind() != types.FieldVal {
			return Key{}, false
		}
		field, _ := sel.Obj().(*types.Var)
		if field == nil {
			return Key{}, false
		}
		if w.localValueChain(lhs.X) {
			return Key{}, false
		}
		owner := namedOf(fieldOwner(sel))
		if owner == "" {
			return Key{}, false
		}
		return Key{Kind: FieldWrite, Target: owner + "." + field.Name()}, true
	case *ast.StarExpr:
		// *p = v: a whole-value store through a pointer.
		t := w.info.Types[lhs.X].Type
		if t == nil {
			return Key{}, false
		}
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return Key{}, false
		}
		owner := namedOf(p.Elem())
		if owner == "" {
			return Key{}, false
		}
		return Key{Kind: FieldWrite, Target: owner + ".*"}, true
	case *ast.IndexExpr:
		// x[i] = v: attribute the write to x's own target (the container
		// field or global being filled).
		return w.writeTarget(lhs.X)
	}
	return Key{}, false
}

// globalVar returns the package-level variable an identifier denotes.
func (w *walker) globalVar(id *ast.Ident) *types.Var {
	obj := w.info.Uses[id]
	if obj == nil {
		obj = w.info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// localValueChain reports whether the base expression provably stays on
// this function's stack: an unqualified chain of value-struct selections
// rooted at a non-pointer local variable. Anything crossing a pointer,
// slice, map, call or index is reachable memory and counts as an effect.
func (w *walker) localValueChain(base ast.Expr) bool {
	for {
		base = unparen(base)
		switch b := base.(type) {
		case *ast.Ident:
			v, ok := w.info.Uses[b].(*types.Var)
			if !ok {
				return false
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return false // global root
			}
			if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
				return false
			}
			return true
		case *ast.SelectorExpr:
			sel, ok := w.info.Selections[b]
			if !ok || sel.Kind() != types.FieldVal {
				return false
			}
			if _, isPtr := sel.Recv().Underlying().(*types.Pointer); isPtr {
				return false
			}
			base = b.X
		default:
			return false
		}
	}
}

// escapes reports whether the expression may carry a pointer derived from
// one of fn's parameters or its receiver into the destination.
func (w *walker) escapes(rhs ast.Expr, fn *callgraph.Func) bool {
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.info.Uses[id].(*types.Var)
		if ok && isParamOf(v, fn) && pointerish(v.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isParamOf reports whether v is a parameter or receiver of fn.
func isParamOf(v *types.Var, fn *callgraph.Func) bool {
	var ft *ast.FuncType
	var recv *ast.FieldList
	switch {
	case fn.Decl != nil:
		ft, recv = fn.Decl.Type, fn.Decl.Recv
	case fn.Lit != nil:
		ft = fn.Lit.Type
	default:
		return false
	}
	pos := v.Pos()
	in := func(fl *ast.FieldList) bool {
		return fl != nil && fl.Pos() <= pos && pos <= fl.End()
	}
	return in(ft.Params) || in(recv)
}

// pointerish reports whether values of the type carry references.
func pointerish(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
}

// fieldOwner returns the type that owns the selected field: the named
// struct the selection path lands on (for embedded fields, the embedded
// struct, not the outer one).
func fieldOwner(sel *types.Selection) types.Type {
	t := sel.Recv()
	// Walk the embedding path: all but the last index step cross embedded
	// fields.
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		t = deref(t)
		s, ok := t.Underlying().(*types.Struct)
		if !ok {
			return t
		}
		t = s.Field(i).Type()
	}
	return deref(t)
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf renders the stable "pkgpath.TypeName" ID of a (possibly
// pointer-wrapped, possibly instantiated) named type, "" otherwise.
func namedOf(t types.Type) string {
	t = deref(types.Unalias(t))
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	n = n.Origin()
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// varID is the stable ID of a package-level variable.
func varID(v *types.Var) string {
	if v.Pkg() == nil {
		return v.Name()
	}
	return v.Pkg().Path() + "." + v.Name()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
