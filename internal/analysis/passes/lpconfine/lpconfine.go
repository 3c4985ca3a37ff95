// Package lpconfine machine-checks the partitioned engine's state
// ownership: an event armed on member LP i must not write state owned
// by the controller LP (or any other LP) except by scheduling a
// cross-LP event with LP.Send. That is the invariant the degraded-mode
// RAID work leans on ("all failure state lives on the controller LP",
// DESIGN.md §11) — violated, it is a window-parallel data race that no
// race detector sees at Workers=1 and no identity test sees unless the
// racing path executes.
//
// The pass propagates an execution context over the program call
// graph, using the convention of raid.NewPartitioned that LP 0 is the
// controller and LPs 1..n are members:
//
//   - A function literal passed to LP.Send runs on the destination LP:
//     controller context when the destination is the constant 0,
//     member context otherwise (a computed destination is some member).
//   - A literal passed to LP.At/LP.After, to a dynamic or external
//     callee (an interface method like device.Device.Submit), or used
//     as a plain value runs wherever its enclosing function runs.
//   - A literal bound to a function-typed parameter of an in-program
//     callee runs where that callee invokes the parameter — so a
//     callback handed to raid's Array.issueOp, whose linked branch
//     fires it inside a Send(0, ...) event, is controller context even
//     though issueOp also arms member events.
//   - A method value stands for its method wherever a literal would:
//     passed to LP.Send it runs on the destination LP. A func-typed
//     field loaded at a Send, At/After, dynamic-callee (Submit) or
//     call site stands for every method value assigned to that field
//     anywhere in the program — the pooled-record shape of raid's
//     linkOp, whose callbacks are bound once when the record is built.
//   - A named function unions the contexts of its call sites (plus
//     controller, since exported entry points run on the driver's LP).
//
// In every node that can run in member context, two write classes are
// flagged: a write to any field of an aggregate (a struct with a
// *par.Engine or *par.LP field, or holding such a struct, as
// raid.Array holds its links — the controller object), and a write
// to a captured variable declared in a scope that never runs in member
// context (the runPhase/Rebuild closure counters). State a member
// event owns outright — locals of the member event itself — is
// untouched, and routing the update through LP.Send to the owning LP
// is recognized because the Send literal gets the destination's
// context, not the sender's.
package lpconfine

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

const parPath = "repro/internal/simkit/par"

// Execution contexts; a node may have both when reachable from events
// armed on both sides.
const (
	ctxCtrl   uint8 = 1 << iota // controller LP (LP 0) or external driver
	ctxMember                   // some member LP (LP != 0)
)

var Analyzer = &analysis.Analyzer{
	Name: "lpconfine",
	Doc: "flag writes to controller-owned state (aggregate fields, captured controller locals) " +
		"from events armed on member LPs; cross-LP effects must go through LP.Send",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsSimPackage(pass.Pkg.Path) || pass.Pkg.Path == parPath {
		return nil
	}
	if !importsPar(pass.Pkg) {
		return nil
	}
	cf := confineFor(pass.Prog)
	for _, node := range cf.graph.Nodes {
		if node.Pkg != pass.Pkg || cf.ctx[node]&ctxMember == 0 {
			continue
		}
		cf.scanWrites(pass, node)
	}
	return nil
}

func importsPar(pkg *analysis.Package) bool {
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == parPath {
			return true
		}
	}
	return false
}

// confine is the program-wide context analysis, built once and shared
// by every package's run through Program.Cached.
type confine struct {
	graph *callgraph.Graph
	ctx   map[*callgraph.Node]uint8

	// decl maps every locally declared object (params included) to the
	// graph node whose syntax declares it, for the captured-write check.
	decl map[types.Object]*callgraph.Node

	// aggField marks fields of aggregate structs — package structs
	// holding a *par.Engine or *par.LP, directly or through another
	// aggregate, i.e. the controller objects whose state the ownership
	// partition protects.
	aggField map[*types.Var]bool

	// callArg marks literals that appear directly as a call argument or
	// callee; all others inherit their enclosing function's context.
	callArg map[*ast.FuncLit]bool

	// fieldFuncs maps a func-typed struct field to the methods whose
	// method values are assigned to it anywhere in the program.
	fieldFuncs map[*types.Var][]*types.Func
}

func confineFor(prog *analysis.Program) *confine {
	return prog.Cached("lpconfine.confine", func() any {
		cf := &confine{
			graph:      sharedGraph(prog),
			ctx:        make(map[*callgraph.Node]uint8),
			decl:       make(map[types.Object]*callgraph.Node),
			aggField:   make(map[*types.Var]bool),
			callArg:    make(map[*ast.FuncLit]bool),
			fieldFuncs: make(map[*types.Var][]*types.Func),
		}
		cf.index(prog)
		cf.propagate()
		return cf
	}).(*confine)
}

func sharedGraph(prog *analysis.Program) *callgraph.Graph {
	return prog.Cached("callgraph", func() any { return callgraph.Build(prog) }).(*callgraph.Graph)
}

// index records declared objects per node, aggregate fields per
// package, and which literals are call arguments.
func (cf *confine) index(prog *analysis.Program) {
	for _, node := range cf.graph.Nodes {
		var syntax ast.Node = node.Decl
		if node.Lit != nil {
			syntax = node.Lit
		}
		n := node
		ast.Inspect(syntax, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok && m != syntax {
				return false
			}
			if id, ok := m.(*ast.Ident); ok {
				if obj := n.Pkg.TypesInfo.Defs[id]; obj != nil {
					cf.decl[obj] = n
				}
			}
			switch m := m.(type) {
			case *ast.CallExpr:
				for _, arg := range m.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						cf.callArg[lit] = true
					}
				}
			case *ast.AssignStmt:
				if len(m.Lhs) == len(m.Rhs) {
					for i, lhs := range m.Lhs {
						cf.bindField(n.Pkg.TypesInfo, lhs, m.Rhs[i])
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := m.Key.(*ast.Ident); ok {
					cf.bindField(n.Pkg.TypesInfo, id, m.Value)
				}
			}
			return true
		})
	}
	var structs []*types.Struct
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					structs = append(structs, st)
				}
			}
		}
	}
	agg := make(map[*types.Struct]bool)
	for changed := true; changed; {
		changed = false
		for _, st := range structs {
			if !agg[st] && holdsEngine(st, agg) {
				agg[st] = true
				changed = true
			}
		}
	}
	for _, st := range structs {
		if agg[st] {
			for i := 0; i < st.NumFields(); i++ {
				cf.aggField[st.Field(i)] = true
			}
		}
	}
}

// bindField records rhs in fieldFuncs when lhs names a func-typed
// field (a selector, or a composite-literal key) and rhs is a method
// value.
func (cf *confine) bindField(info *types.Info, lhs, rhs ast.Expr) {
	var id *ast.Ident
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		id = l.Sel
	case *ast.Ident:
		id = l
	default:
		return
	}
	fv, ok := info.ObjectOf(id).(*types.Var)
	if !ok || !fv.IsField() {
		return
	}
	if fn := methodValue(info, rhs); fn != nil {
		cf.fieldFuncs[fv] = append(cf.fieldFuncs[fv], fn)
	}
}

// methodValue returns the method of a method-value expression x.M, or
// nil.
func methodValue(info *types.Info, e ast.Expr) *types.Func {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		fn, _ := s.Obj().(*types.Func)
		return fn
	}
	return nil
}

// callbacks returns the graph nodes a function-valued expression can
// run: a literal's own node, a method value's method, or, for a load
// of a func-typed field, every method whose value is assigned to it.
func (cf *confine) callbacks(info *types.Info, e ast.Expr) []*callgraph.Node {
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.FuncLit); ok {
		return []*callgraph.Node{cf.graph.ByLit[lit]}
	}
	if fn := methodValue(info, e); fn != nil {
		return []*callgraph.Node{cf.graph.ByObj[fn]}
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fv, ok := info.ObjectOf(sel.Sel).(*types.Var)
	if !ok || !fv.IsField() {
		return nil
	}
	var out []*callgraph.Node
	for _, fn := range cf.fieldFuncs[fv] {
		out = append(out, cf.graph.ByObj[fn])
	}
	return out
}

// holdsEngine reports whether a struct is an aggregate: it holds a
// *par.Engine or *par.LP, or an aggregate by value or pointer — so
// raid.Array, whose engine sits in its *links coupling, owns its
// fields exactly as the coupling does.
func holdsEngine(st *types.Struct, agg map[*types.Struct]bool) bool {
	for i := 0; i < st.NumFields(); i++ {
		t := st.Field(i).Type()
		switch types.TypeString(t, nil) {
		case "*" + parPath + ".Engine", "*" + parPath + ".LP":
			return true
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if inner, ok := t.Underlying().(*types.Struct); ok && agg[inner] {
			return true
		}
	}
	return false
}

// propagate runs the context fixpoint: contexts only ever grow, so
// iterating until nothing changes terminates.
func (cf *confine) propagate() {
	for _, node := range cf.graph.Nodes {
		if node.Decl != nil {
			cf.ctx[node] |= ctxCtrl
		}
	}
	for changed := true; changed; {
		changed = false
		merge := func(node *callgraph.Node, c uint8) {
			if node == nil || cf.ctx[node]&c == c {
				return
			}
			cf.ctx[node] |= c
			changed = true
		}
		for _, node := range cf.graph.Nodes {
			// A literal used as a plain value (assigned to a variable,
			// returned, stored in a field) runs wherever its enclosing
			// function does.
			if node.Lit != nil && !cf.callArg[node.Lit] {
				merge(node, cf.ctx[node.Parent])
			}
			info := node.Pkg.TypesInfo
			for _, call := range node.Calls {
				fn := call.Callee
				if fn == nil {
					// A call of a func-typed field runs the methods
					// bound to it where the caller runs.
					for _, cb := range cf.callbacks(info, call.Site.Fun) {
						merge(cb, cf.ctx[node])
					}
				}
				if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == parPath {
					cf.propagatePar(call, node, merge)
					continue
				}
				target := (*callgraph.Node)(nil)
				if fn != nil {
					target = cf.graph.ByObj[fn]
				}
				if target != nil {
					// Named in-program callee: it runs in its callers'
					// contexts, and a callback argument runs where the
					// callee invokes the parameter it binds.
					merge(target, cf.ctx[node])
					for i, arg := range call.Site.Args {
						for _, cb := range cf.callbacks(info, arg) {
							seen := make(map[paramKey]bool)
							merge(cb, cf.invocationCtx(fn, i, seen))
						}
					}
					continue
				}
				// Dynamic or external callee: assume it invokes its
				// function arguments where the caller runs (the
				// device.Device.Submit completion-callback case).
				for _, arg := range call.Site.Args {
					for _, cb := range cf.callbacks(info, arg) {
						merge(cb, cf.ctx[node])
					}
				}
			}
		}
	}
}

// propagatePar handles calls into the par package: Send callbacks run
// on the destination LP, At/After callbacks on the arming LP.
func (cf *confine) propagatePar(call *callgraph.Call, node *callgraph.Node, merge func(*callgraph.Node, uint8)) {
	site := call.Site
	switch call.Callee.Name() {
	case "Send": // Send(dst, at, fn)
		if len(site.Args) != 3 {
			return
		}
		dest := ctxMember
		if tv, ok := node.Pkg.TypesInfo.Types[site.Args[0]]; ok && constIsZero(tv) {
			dest = ctxCtrl
		}
		for _, cb := range cf.callbacks(node.Pkg.TypesInfo, site.Args[2]) {
			merge(cb, dest)
		}
	case "At", "After": // At(t, fn) / After(d, fn)
		if len(site.Args) != 2 {
			return
		}
		for _, cb := range cf.callbacks(node.Pkg.TypesInfo, site.Args[1]) {
			merge(cb, cf.ctx[node])
		}
	}
}

// constIsZero reports whether the expression is the integer constant 0
// — the convention-fixed controller LP id.
func constIsZero(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return false
	}
	i, exact := constant.Int64Val(v)
	return exact && i == 0
}

type paramKey struct {
	fn  *types.Func
	idx int
}

// invocationCtx reports the contexts in which fn invokes its idx'th
// parameter — directly, inside nested literals, or by forwarding it to
// another in-program callee.
func (cf *confine) invocationCtx(fn *types.Func, idx int, seen map[paramKey]bool) uint8 {
	key := paramKey{fn, idx}
	if seen[key] {
		return 0
	}
	seen[key] = true
	sig, ok := fn.Type().(*types.Signature)
	if !ok || idx >= sig.Params().Len() {
		return 0
	}
	param := sig.Params().At(idx)
	target := cf.graph.ByObj[fn]
	if target == nil {
		return 0
	}
	var out uint8
	for _, node := range cf.graph.Nodes {
		if topOf(node) != target {
			continue
		}
		for _, call := range node.Calls {
			if id, ok := call.Site.Fun.(*ast.Ident); ok && node.Pkg.TypesInfo.ObjectOf(id) == param {
				out |= cf.ctx[node]
			}
			if call.Callee == nil || cf.graph.ByObj[call.Callee] == nil {
				continue
			}
			for j, arg := range call.Site.Args {
				if id, ok := arg.(*ast.Ident); ok && node.Pkg.TypesInfo.ObjectOf(id) == param {
					out |= cf.invocationCtx(call.Callee, j, seen)
				}
			}
		}
	}
	return out
}

func topOf(n *callgraph.Node) *callgraph.Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// scanWrites reports the member-context violations inside one node's
// own statements (nested literals are their own nodes).
func (cf *confine) scanWrites(pass *analysis.Pass, node *callgraph.Node) {
	info := node.Pkg.TypesInfo
	body := node.Body()
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && info.Defs[id] != nil {
					continue // declaration, not a cross-scope write
				}
				cf.checkTarget(pass, node, lhs)
			}
		case *ast.IncDecStmt:
			cf.checkTarget(pass, node, n.X)
		}
		return true
	})
}

// checkTarget walks an assignment target down to the state it mutates
// and reports writes that cross the LP ownership partition.
func (cf *confine) checkTarget(pass *analysis.Pass, node *callgraph.Node, e ast.Expr) {
	info := node.Pkg.TypesInfo
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			if fv, ok := info.Uses[t.Sel].(*types.Var); ok && fv.IsField() && cf.aggField[fv] {
				pass.Reportf(e.Pos(), "write to controller-owned %s from an event armed on a member LP: cross-LP effects must be scheduled on the owning LP with LP.Send", types.ExprString(e))
				return
			}
			e = t.X
		case *ast.Ident:
			obj := info.ObjectOf(t)
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() {
				return
			}
			d := cf.decl[obj]
			switch {
			case d == node:
				return // the member event's own local
			case d == nil:
				pass.Reportf(t.Pos(), "write to package-level %s from an event armed on a member LP: shared state makes window execution order-dependent", t.Name)
			case cf.ctx[d]&ctxMember == 0:
				pass.Reportf(t.Pos(), "write to %s, declared in controller-LP scope %s, from an event armed on a member LP: return the result to the controller with LP.Send", t.Name, d.Name())
			}
			return
		default:
			return
		}
	}
}
