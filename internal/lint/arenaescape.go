package lint

import (
	"go/ast"
	"go/types"
)

// ArenaEscape enforces the two rules that make the flat curve arenas sound
// (see internal/hap/arena.go): every slice expression over arena-backed
// points must be a full-slice expression (`a.pts[lo:hi:hi]`), so a stray
// append through a retained view can never clobber a neighboring curve; and
// an arena view — a slice of `pts`, an alias of one, or the result of a
// view-producing function like curveOf — must not be stored beyond the
// solver that owns the arena: not in a struct field, not in a package
// variable, not down a channel, and not returned from an exported function.
// Writes to a `pts` field itself (`a.pts = a.pts[:0]`, append-growth) are
// arena management, not views, and are exempt.
//
// The analysis is type-keyed: it anchors on the `pts` field of a struct type
// named curveArena in the analyzed package and tracks aliases and producer
// functions to a small fixed depth. Packages without such a type have no
// arenas and produce no findings.
var ArenaEscape = &Analyzer{
	Name: "arenaescape",
	Doc:  "arena-backed curve slices must use full-slice expressions and must not be stored beyond solver scope",
	Run:  runArenaEscape,
}

func runArenaEscape(pass *Pass) {
	ptsField := findArenaPtsField(pass.Pkg)
	if ptsField == nil {
		return
	}
	c := &arenaChecker{
		pass:      pass,
		pts:       ptsField,
		aliases:   map[*types.Var]bool{},
		producers: map[*types.Func]bool{},
	}
	// Alias and producer collection to a small fixed depth: an alias of an
	// alias of a view still aliases the arena. Three rounds cover every
	// chain in practice (ident ← slice ← producer ← ident).
	for i := 0; i < 3; i++ {
		c.collect()
	}
	c.check()
}

// findArenaPtsField locates the `pts` slice field of the package's
// curveArena struct, the anchor of the whole analysis.
func findArenaPtsField(pkg *types.Package) *types.Var {
	obj := pkg.Scope().Lookup("curveArena")
	if obj == nil {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "pts" {
			continue
		}
		if _, ok := f.Type().Underlying().(*types.Slice); ok {
			return f
		}
	}
	return nil
}

type arenaChecker struct {
	pass      *Pass
	pts       *types.Var           // curveArena.pts
	aliases   map[*types.Var]bool  // locals holding arena-backed slices
	producers map[*types.Func]bool // functions returning arena views
}

// isPtsSelector reports whether e selects the curveArena.pts field.
func (c *arenaChecker) isPtsSelector(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && c.pass.Info.Uses[sel.Sel] == c.pts
}

// isArenaBacked reports whether e evaluates to a slice sharing the arena's
// backing store: the pts field, a slice of arena-backed data, an alias
// variable, or a producer call. Conversions and parens are transparent.
func (c *arenaChecker) isArenaBacked(e ast.Expr) bool {
	e = exprCore(c.pass.Info, e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return c.pass.Info.Uses[x.Sel] == c.pts
	case *ast.Ident:
		v, ok := c.pass.Info.Uses[x].(*types.Var)
		return ok && c.aliases[v]
	case *ast.SliceExpr:
		return c.isArenaBacked(x.X)
	case *ast.IndexExpr:
		// pts[i] is a curvePoint value, not a view; but a slice-of-slices
		// alias indexed still isn't pts-backed here. Not a view.
		return false
	case *ast.CallExpr:
		callee := calleeFunc(c.pass.Info, x)
		return callee != nil && c.producers[callee]
	}
	return false
}

// collect records alias variables and view-producing functions; called
// repeatedly to reach a fixpoint over short chains.
func (c *arenaChecker) collect() {
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i := range n.Lhs {
					if !c.isArenaBacked(n.Rhs[i]) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						if v, ok := identVar(c.pass.Info, id).(*types.Var); ok && !v.IsField() {
							c.aliases[v] = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, id := range n.Names {
					if c.isArenaBacked(n.Values[i]) {
						if v, ok := c.pass.Info.Defs[id].(*types.Var); ok {
							c.aliases[v] = true
						}
					}
				}
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				fn, ok := c.pass.Info.Defs[n.Name].(*types.Func)
				if !ok || c.producers[fn] {
					return true
				}
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if ret, ok := m.(*ast.ReturnStmt); ok {
						for _, r := range ret.Results {
							if c.isArenaBacked(r) {
								c.producers[fn] = true
							}
						}
					}
					return true
				})
			}
			return true
		})
	}
}

func (c *arenaChecker) check() {
	for _, f := range c.pass.Files {
		// Slice expressions that are the RHS of a write into a pts field are
		// arena management (the reset/compact idiom), exempt from the
		// full-slice rule.
		exempt := map[ast.Node]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				if c.isPtsSelector(as.Lhs[i]) {
					exempt[exprCore(c.pass.Info, as.Rhs[i])] = true
				}
			}
			return true
		})

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SliceExpr:
				if !c.isArenaBacked(n.X) || exempt[n] {
					return true
				}
				if !n.Slice3 || n.Max == nil {
					c.pass.Report(n.Pos(), "slice of arena-backed points must pin its capacity with a full-slice expression [lo:hi:max]")
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						if c.isArenaBacked(n.Rhs[i]) && c.escapingTarget(n.Lhs[i]) {
							c.pass.Report(n.Rhs[i].Pos(), "arena-backed curve is stored beyond the solver that owns it; copy the points instead")
						}
					}
				}
			case *ast.SendStmt:
				if c.isArenaBacked(n.Value) {
					c.pass.Report(n.Value.Pos(), "arena-backed curve is sent on a channel and may outlive its solver; copy the points instead")
				}
			case *ast.FuncDecl:
				if n.Body == nil || !n.Name.IsExported() {
					return true
				}
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if _, ok := m.(*ast.FuncLit); ok {
						return false
					}
					if ret, ok := m.(*ast.ReturnStmt); ok {
						for _, r := range ret.Results {
							if c.isArenaBacked(r) {
								c.pass.Report(r.Pos(), "exported function returns an arena-backed view; copy the points before returning")
							}
						}
					}
					return true
				})
			}
			return true
		})
	}
}

// escapingTarget reports whether writing to lhs stores the value beyond the
// current solver scope: a struct field other than a pts field (writes into
// pts are arena management) or a package-level variable, possibly through an
// index.
func (c *arenaChecker) escapingTarget(lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if c.pass.Info.Uses[x.Sel] == c.pts {
			return false
		}
		v, ok := c.pass.Info.Uses[x.Sel].(*types.Var)
		return ok && v.IsField()
	case *ast.Ident:
		v, ok := c.pass.Info.Uses[x].(*types.Var)
		return ok && v.Parent() == c.pass.Pkg.Scope()
	case *ast.IndexExpr:
		return c.escapingTarget(x.X)
	case *ast.StarExpr:
		return c.escapingTarget(x.X)
	}
	return false
}
