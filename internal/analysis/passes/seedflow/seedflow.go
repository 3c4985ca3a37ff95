// Package seedflow is a taint pass over randomness provenance: every
// argument to rand.New/rand.NewSource in a simulation package must
// flow from the experiment's seed — a Config.Seed/BaseSeed field or a
// SplitMix64-style derivation of one — through whatever chain of
// locals, parameters, struct fields, and helper returns the code
// plumbs it through. The intraprocedural globalrand pass catches a
// literal seed at the constructor; this pass follows the value
// backwards across function and package boundaries, so a constant or
// fresh-entropy seed smuggled in through a parameter or an options
// struct is caught at CI time too.
//
// Derivation is demand-driven with function summaries:
//
//   - A selection of a field named Seed or BaseSeed is derived — those
//     fields are the contract's root (experiments.Config.Seed,
//     fleet.Options.BaseSeed).
//   - fleet.DeriveSeed and other SplitMix64-style derivations are
//     derived by construction.
//   - Arithmetic is taint-preserving: mixing a derived seed with a
//     loop index or LP id (cfg.Seed + int64(i)) stays derived.
//   - A parameter is derived when every simulation-package call site
//     passes a derived argument. Call sites in shell packages (fleet,
//     serve, cmd) discharge the obligation — the shell owns the base
//     seed — as do parameters of exported functions with no static
//     caller (a facade constructor only an application calls, like the
//     seedapp fixture's Facade) and parameters of function literals
//     invoked through dynamic calls (a fleet job closure), whose
//     arguments this analysis cannot see.
//   - A struct field other than the root is derived when every value
//     the program assigns it — composite literal or field assignment —
//     is derived.
//
// Anything else — fresh entropy from an external call, a constant
// reached through the chain, a variable never assigned — is reported
// at the rand.New/NewSource site, naming the underivable root.
//
// The pass also flags package-level *rand.Rand/rand.Source variables
// in simulation packages: a process-wide stream is shared across
// fleet jobs, so draws depend on job interleaving no matter how the
// stream was seeded.
package seedflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "seedflow",
	Doc: "require every rand.New/NewSource seed in simulation packages to derive from a " +
		"Config.Seed/SplitMix64 chain, and forbid package-level random streams shared across jobs",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsSimPackage(pass.Pkg.Path) {
		return nil
	}
	c := checkerFor(pass.Prog)
	info := pass.Pkg.TypesInfo

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, name := range vs.Names {
					obj := info.Defs[name]
					if obj != nil && isRandStream(obj.Type()) {
						pass.Reportf(name.Pos(), "package-level random stream %s is shared across fleet jobs: draws depend on job interleaving; inject a per-job *rand.Rand instead", name.Name)
					}
				}
			}
		}
	}

	for _, node := range c.graph.Nodes {
		if node.Pkg != pass.Pkg {
			continue
		}
		for _, call := range node.Calls {
			name, ok := randConstructor(info, call.Site)
			if !ok {
				continue
			}
			arg := call.Site.Args[0]
			// rand.New(rand.NewSource(x)): the inner call carries the
			// seed and is checked as its own constructor site.
			if t := info.TypeOf(arg); t != nil && isRandSource(t) {
				continue
			}
			// A literal seed right at the constructor is globalrand's
			// finding; this pass owns the chains globalrand cannot see.
			if v, _ := info.Types[arg]; v.Value != nil {
				continue
			}
			if root, ok := c.derived(arg, node); !ok {
				pass.Reportf(arg.Pos(), "seed of rand.%s does not derive from the Config.Seed/SplitMix64 chain: %s", name, root)
			}
		}
	}
	return nil
}

// checker answers "does this expression derive from the seed chain?"
// program-wide; one instance is shared by every package's run through
// Program.Cached, so the call graph, the field-assignment index, and
// the memoized answers are built once.
type checker struct {
	prog  *analysis.Program
	graph *callgraph.Graph

	// fieldVals indexes every value the program assigns to each struct
	// field, with the function the assignment sits in (nil at package
	// level) so parameters inside the value resolve correctly.
	fieldVals map[*types.Var][]valueIn

	objState map[types.Object]state // parameters, locals, fields
	fnState  map[*types.Func]state  // return summaries
}

type valueIn struct {
	expr ast.Expr
	node *callgraph.Node
	pkg  *analysis.Package
}

// state memoizes a derivation query; grey (in progress) answers
// optimistically, which resolves recursion through cyclic call chains
// in favor of the other paths' evidence.
type state int

const (
	white state = iota
	grey
	derivedYes
	derivedNo
)

func checkerFor(prog *analysis.Program) *checker {
	return prog.Cached("seedflow.checker", func() any {
		c := &checker{
			prog:      prog,
			graph:     sharedGraph(prog),
			fieldVals: make(map[*types.Var][]valueIn),
			objState:  make(map[types.Object]state),
			fnState:   make(map[*types.Func]state),
		}
		c.indexFields()
		return c
	}).(*checker)
}

// sharedGraph builds the program call graph once for all analyzers.
func sharedGraph(prog *analysis.Program) *callgraph.Graph {
	return prog.Cached("callgraph", func() any { return callgraph.Build(prog) }).(*callgraph.Graph)
}

// indexFields records every struct-field assignment in the program:
// keyed and positional composite literals, and x.f = v statements.
func (c *checker) indexFields() {
	for _, node := range c.graph.Nodes {
		c.recordIn(node.Body(), node, node.Pkg)
	}
	for _, pkg := range c.prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					for _, v := range spec.(*ast.ValueSpec).Values {
						c.recordIn(v, nil, pkg)
					}
				}
			}
		}
	}
}

func (c *checker) recordIn(root ast.Node, node *callgraph.Node, pkg *analysis.Package) {
	if root == nil {
		return
	}
	info := pkg.TypesInfo
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The literal is its own graph node and records its own
			// body — unless it sits outside any function (a package-
			// level var initializer), which the graph does not cover.
			if _, ok := c.graph.ByLit[n]; ok && n != root {
				return false
			}
		case *ast.CompositeLit:
			st := structOf(info.TypeOf(n))
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if fv, ok := info.Uses[id].(*types.Var); ok && fv.IsField() {
							c.fieldVals[fv] = append(c.fieldVals[fv], valueIn{kv.Value, node, pkg})
						}
					}
					continue
				}
				if st != nil && i < st.NumFields() {
					c.fieldVals[st.Field(i)] = append(c.fieldVals[st.Field(i)], valueIn{el, node, pkg})
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fv, ok := info.Uses[sel.Sel].(*types.Var); ok && fv.IsField() {
					c.fieldVals[fv] = append(c.fieldVals[fv], valueIn{n.Rhs[i], node, pkg})
				}
			}
		}
		return true
	})
}

// derived reports whether expr flows from the seed chain; when it does
// not, the string describes the underivable root for the diagnostic.
func (c *checker) derived(expr ast.Expr, node *callgraph.Node) (string, bool) {
	info := node.Pkg.TypesInfo
	expr = unparen(expr)

	if tv, ok := info.Types[expr]; ok && tv.Value != nil {
		return fmt.Sprintf("constant %v at %s", tv.Value, c.pos(expr)), false
	}

	switch e := expr.(type) {
	case *ast.BinaryExpr:
		// Arithmetic preserves taint: one derived operand keeps the
		// result derived — mixing in a loop index or LP id is how
		// per-stream seeds are built.
		rootX, okX := c.derived(e.X, node)
		if okX {
			return "", true
		}
		if _, okY := c.derived(e.Y, node); okY {
			return "", true
		}
		return rootX, false
	case *ast.UnaryExpr:
		return c.derived(e.X, node)
	case *ast.CallExpr:
		return c.derivedCall(e, node)
	case *ast.SelectorExpr:
		if fv, ok := info.Uses[e.Sel].(*types.Var); ok && fv.IsField() {
			return c.derivedField(fv)
		}
		return fmt.Sprintf("%s at %s", types.ExprString(e), c.pos(expr)), false
	case *ast.Ident:
		return c.derivedIdent(e, node)
	}
	return fmt.Sprintf("%s at %s", types.ExprString(expr), c.pos(expr)), false
}

// derivedCall handles conversions, the blessed derivation helpers,
// and summaries of in-program helpers that return a seed.
func (c *checker) derivedCall(call *ast.CallExpr, node *callgraph.Node) (string, bool) {
	info := node.Pkg.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return c.derived(call.Args[0], node) // conversion: int64(x)
	}
	fn := callgraph.StaticCallee(info, call)
	if fn == nil {
		return fmt.Sprintf("dynamic call %s at %s", types.ExprString(call.Fun), c.pos(call)), false
	}
	if isDeriver(fn) {
		return "", true
	}
	if target := c.graph.ByObj[fn]; target != nil {
		return c.derivedReturn(fn, target)
	}
	return fmt.Sprintf("call to %s at %s provides no seed derivation", fn.FullName(), c.pos(call)), false
}

// derivedReturn summarizes an in-program helper: its result is derived
// when every return statement's value is.
func (c *checker) derivedReturn(fn *types.Func, node *callgraph.Node) (string, bool) {
	switch c.fnState[fn] {
	case grey, derivedYes:
		return "", true
	case derivedNo:
		return fmt.Sprintf("result of %s", fn.FullName()), false
	}
	c.fnState[fn] = grey
	root, ok := "", true
	ast.Inspect(node.Body(), func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || len(ret.Results) == 0 {
			return true
		}
		if r, k := c.derived(ret.Results[0], node); !k {
			root, ok = fmt.Sprintf("%s returns underived value (%s)", fn.FullName(), r), false
		}
		return true
	})
	if ok {
		c.fnState[fn] = derivedYes
	} else {
		c.fnState[fn] = derivedNo
	}
	return root, ok
}

// derivedField checks a non-root struct field against every value the
// program assigns it.
func (c *checker) derivedField(fv *types.Var) (string, bool) {
	if isSeedRoot(fv.Name()) {
		return "", true
	}
	switch c.objState[fv] {
	case grey, derivedYes:
		return "", true
	case derivedNo:
		return fmt.Sprintf("field %s", fv.Name()), false
	}
	vals := c.fieldVals[fv]
	if len(vals) == 0 {
		c.objState[fv] = derivedNo
		return fmt.Sprintf("field %s is never assigned a derived seed", fv.Name()), false
	}
	c.objState[fv] = grey
	root, ok := "", true
	for _, v := range vals {
		if v.node == nil {
			// Package-level assignment: resolve in a contextless node.
			if r, k := c.derivedTopLevel(v); !k {
				root, ok = r, false
			}
			continue
		}
		if r, k := c.derived(v.expr, v.node); !k {
			root, ok = fmt.Sprintf("field %s is assigned an underived value (%s)", fv.Name(), r), false
		}
	}
	if ok {
		c.objState[fv] = derivedYes
	} else {
		c.objState[fv] = derivedNo
	}
	return root, ok
}

// derivedTopLevel handles a field value assigned at package level,
// where there is no enclosing function node: only constants, blessed
// derivations, and other fields can appear there.
func (c *checker) derivedTopLevel(v valueIn) (string, bool) {
	if fv, ok := fieldOf(v.pkg.TypesInfo, v.expr); ok {
		return c.derivedField(fv)
	}
	return fmt.Sprintf("package-level value %s at %s", types.ExprString(v.expr), c.posIn(v.pkg, v.expr)), false
}

// derivedIdent resolves a named value: a parameter through its call
// sites, a local through its assignments.
func (c *checker) derivedIdent(id *ast.Ident, node *callgraph.Node) (string, bool) {
	info := node.Pkg.TypesInfo
	obj := info.ObjectOf(id)
	if obj == nil {
		return fmt.Sprintf("unresolved %s", id.Name), false
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		return fmt.Sprintf("%s at %s", id.Name, c.pos(id)), false
	}
	switch c.objState[v] {
	case grey, derivedYes:
		return "", true
	case derivedNo:
		return fmt.Sprintf("%s at %s", id.Name, c.pos(id)), false
	}
	c.objState[v] = grey
	root, ok := c.derivedVar(v, node)
	if ok {
		c.objState[v] = derivedYes
	} else {
		c.objState[v] = derivedNo
	}
	return root, ok
}

func (c *checker) derivedVar(v *types.Var, node *callgraph.Node) (string, bool) {
	if owner, idx, isParam := c.graph.Param(v); isParam {
		return c.derivedParam(v, owner, idx)
	}
	// A local: every reaching assignment in the enclosing declaration
	// (closures included — they share the declaration's body) must be
	// derived.
	top := node
	for top.Parent != nil {
		top = top.Parent
	}
	var root string
	found, ok := false, true
	ast.Inspect(top.Body(), func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, isID := lhs.(*ast.Ident); isID && node.Pkg.TypesInfo.ObjectOf(id) == v {
					if r, k := c.derived(n.Rhs[i], c.nodeAt(n.Rhs[i], top)); !k {
						root, ok = r, false
					}
					found = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if node.Pkg.TypesInfo.ObjectOf(name) == v && i < len(n.Values) {
					if r, k := c.derived(n.Values[i], c.nodeAt(n.Values[i], top)); !k {
						root, ok = r, false
					}
					found = true
				}
			}
		}
		return true
	})
	if !found {
		return fmt.Sprintf("%s is never assigned in %s", v.Name(), top.Name()), false
	}
	return root, ok
}

// derivedParam checks every simulation-package call site binding the
// parameter. Shell call sites, dynamically invoked function literals,
// and uncalled exported functions discharge the obligation: the seed
// is the caller's to justify there.
func (c *checker) derivedParam(v *types.Var, owner *callgraph.Node, idx int) (string, bool) {
	if owner.Obj == nil {
		return "", true // literal invoked through a dynamic call
	}
	callers := c.graph.Callers(owner.Obj)
	var root string
	ok := true
	for _, call := range callers {
		if !analysis.IsSimPackage(call.Caller.Pkg.Path) {
			continue
		}
		arg := callgraph.Argument(call.Site, idx)
		if arg == nil {
			continue // forwarded result tuple; out of scope
		}
		if r, k := c.derived(arg, call.Caller); !k {
			root, ok = fmt.Sprintf("parameter %s of %s receives an underived argument at %s (%s)",
				v.Name(), owner.Name(), c.pos(arg), r), false
		}
	}
	return root, ok
}

// nodeAt returns the graph node whose body lexically contains pos —
// the innermost function literal under top, or top itself.
func (c *checker) nodeAt(e ast.Expr, top *callgraph.Node) *callgraph.Node {
	best := top
	for _, n := range c.graph.Nodes {
		if n.Lit == nil {
			continue
		}
		t := n
		for t.Parent != nil {
			t = t.Parent
		}
		if t != top {
			continue
		}
		if n.Lit.Pos() <= e.Pos() && e.End() <= n.Lit.End() {
			if best == top || (best.Lit != nil && best.Lit.Pos() <= n.Lit.Pos()) {
				best = n
			}
		}
	}
	return best
}

func (c *checker) pos(n ast.Node) token.Position {
	return c.prog.Fset.Position(n.Pos())
}

func (c *checker) posIn(pkg *analysis.Package, n ast.Node) token.Position {
	return pkg.Fset.Position(n.Pos())
}

// isSeedRoot reports whether a field name is the derivation chain's
// root by contract.
func isSeedRoot(name string) bool { return name == "Seed" || name == "BaseSeed" }

// isDeriver recognizes the blessed derivation helpers: fleet.DeriveSeed
// and any SplitMix64-style mixer.
func isDeriver(fn *types.Func) bool {
	name := fn.Name()
	return name == "DeriveSeed" || strings.Contains(strings.ToLower(name), "splitmix")
}

// structOf unwraps a (possibly pointer-to or named) struct type for
// positional composite-literal indexing.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// fieldOf matches a selector expression denoting a struct field.
func fieldOf(info *types.Info, e ast.Expr) (*types.Var, bool) {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fv, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !fv.IsField() {
		return nil, false
	}
	return fv, true
}

// randConstructor matches rand.New / rand.NewSource from math/rand or
// math/rand/v2 with a single seed argument.
func randConstructor(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg, ok := info.Uses[pkgID].(*types.PkgName)
	if !ok {
		return "", false
	}
	switch pkg.Imported().Path() {
	case "math/rand", "math/rand/v2":
	default:
		return "", false
	}
	switch sel.Sel.Name {
	case "New", "NewSource", "NewPCG", "NewChaCha8":
		return sel.Sel.Name, true
	}
	return "", false
}

func isRandStream(t types.Type) bool {
	switch types.TypeString(t, nil) {
	case "*math/rand.Rand", "math/rand.Source", "math/rand.Source64",
		"*math/rand/v2.Rand", "math/rand/v2.Source":
		return true
	}
	return false
}

func isRandSource(t types.Type) bool {
	switch types.TypeString(t, nil) {
	case "math/rand.Source", "math/rand.Source64", "math/rand/v2.Source",
		"*math/rand.Rand", "*math/rand/v2.Rand":
		return true
	}
	return false
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
