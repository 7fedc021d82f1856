package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the one statement walker under the flow-sensitive rules:
// lockguard and lockorder carry held locks and fresh locals (locks.go),
// recorder-guard carries the expressions known to be non-nil
// (recorder.go). A scopeWalker walks one function body in source order
// and owns the control flow; its factSet decides what each construct
// means for the facts it carries.
//
// The walk is lexical, not path-sensitive: what a conditionally run part
// (an if or else branch, a loop body, a case or comm clause, the right
// operand of &&) learns is forgotten when that part ends. The one
// exception is an if whose then-branch always leaves (return, panic,
// break, continue, goto): what the condition being false implies holds
// after it. Function literals are walked where they appear. One that is
// called on the spot (func(){…}(), also under defer) or passed directly
// as a call argument runs under the current facts (the
// synchronous-callback assumption: sort.Slice and friends run it before
// returning); a go statement and every other literal start from what
// the fact set says carries into detached code.

// A factSet is what a scopeWalker knows at one point of a function body.
type factSet interface {
	// clone copies the set; restore puts such a copy back in place,
	// ending a scope.
	clone() factSet
	restore(saved factSet)
	// scopesBlocks reports whether a plain {} block is a scope.
	scopesBlocks() bool
	// detach drops what does not carry into code that runs detached from
	// this point: a go statement, or a function literal that is not a
	// call argument.
	detach()
	// assume adds what cond evaluating to truth implies.
	assume(cond ast.Expr, truth bool)
	// bind records the assignment name = rhs; rhs is nil when the value
	// is not one expression (a multi-value call, a range variable, a var
	// declaration without a value).
	bind(name string, rhs ast.Expr)
	// escape records that e's value is published: passed to a call,
	// returned, sent, stored in a composite literal, or copied.
	escape(e ast.Expr)
	// lockOp applies a lock-family call (see asLockOp) on mu.
	lockOp(mu ast.Expr, method string)
}

// scopeWalker walks one function body, keeping each fact scoped to the
// statements that can rely on it.
type scopeWalker struct {
	p     *Package
	facts factSet
	// inGo is >0 while walking a go statement's call and body.
	inGo int
	// onAccess fires for every selector expression (field reads and
	// writes, method values, and the bases of longer chains); write
	// marks a store target (assignment LHS, IncDec operand, address-taken
	// operand).
	onAccess func(sel *ast.SelectorExpr, write bool)
	// onCall fires for every call that is not a lock operation, after
	// its operands.
	onCall func(call *ast.CallExpr)
}

// scoped runs walk and then drops whatever it taught the fact set.
func (w *scopeWalker) scoped(walk func()) {
	saved := w.facts.clone()
	walk()
	w.facts.restore(saved)
}

func (w *scopeWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *scopeWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, false)
	case *ast.AssignStmt:
		w.assign(s.Lhs, s.Rhs)
	case *ast.IncDecStmt:
		w.expr(s.X, true)
	case *ast.DeclStmt:
		// var x = v binds like x := v.
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					names := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						names[i] = n
					}
					w.assign(names, vs.Values)
				}
			}
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to the end of the
		// function. A deferred closure runs before the Unlocks deferred
		// ahead of it, so it is walked under the current locks.
		if mu, _, ok := asLockOp(w.p, s.Call); ok {
			w.expr(mu, false)
			return
		}
		w.expr(s.Call, false)
	case *ast.GoStmt:
		w.inGo++
		w.scoped(func() {
			w.facts.detach()
			w.expr(s.Call, false)
		})
		w.inGo--
	case *ast.SendStmt:
		w.expr(s.Chan, false)
		w.expr(s.Value, false)
		w.facts.escape(s.Value)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, false)
			w.facts.escape(r)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.BlockStmt:
		if w.facts.scopesBlocks() {
			w.scoped(func() { w.stmts(s.List) })
		} else {
			w.stmts(s.List)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond, false)
		w.scoped(func() {
			w.facts.assume(s.Cond, true)
			w.stmts(s.Body.List)
		})
		w.scoped(func() {
			w.facts.assume(s.Cond, false)
			w.stmt(s.Else)
		})
		if terminates(s.Body) {
			w.facts.assume(s.Cond, false)
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond, false)
		w.scoped(func() {
			w.stmts(s.Body.List)
			w.stmt(s.Post)
		})
	case *ast.RangeStmt:
		w.expr(s.X, false)
		w.scoped(func() {
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok {
					w.facts.bind(id.Name, nil)
				}
			}
			w.stmts(s.Body.List)
		})
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag, false)
		w.clauses(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.clauses(s.Body)
	case *ast.SelectStmt:
		w.clauses(s.Body)
	}
}

// clauses walks each case or comm clause of a switch or select as its
// own scope.
func (w *scopeWalker) clauses(body *ast.BlockStmt) {
	for _, c := range body.List {
		w.scoped(func() {
			switch c := c.(type) {
			case *ast.CaseClause:
				for _, e := range c.List {
					w.expr(e, false)
				}
				w.stmts(c.Body)
			case *ast.CommClause:
				w.stmt(c.Comm)
				w.stmts(c.Body)
			}
		})
	}
}

// assign walks lhs = rhs: the right side is read, a non-identifier on
// the left is written, each identifier on the left is bound, and every
// right-hand value escapes.
func (w *scopeWalker) assign(lhs, rhs []ast.Expr) {
	for _, r := range rhs {
		w.expr(r, false)
	}
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			w.expr(l, true)
			continue
		}
		if id.Name == "_" {
			continue
		}
		var v ast.Expr
		if len(lhs) == len(rhs) {
			v = rhs[i]
		}
		w.facts.bind(id.Name, v)
	}
	for _, r := range rhs {
		w.facts.escape(r)
	}
}

// expr walks an expression, firing the hooks and applying the lock
// operations and closures it contains. write marks e itself as a store
// target.
func (w *scopeWalker) expr(e ast.Expr, write bool) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		w.expr(e.X, false)
		if w.onAccess != nil {
			w.onAccess(e, write)
		}
	case *ast.CallExpr:
		if mu, method, ok := asLockOp(w.p, e); ok {
			w.expr(mu, false)
			w.facts.lockOp(mu, method)
			return
		}
		if fl, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
			// Called on the spot: it runs here, under the current facts.
			w.scoped(func() { w.stmts(fl.Body.List) })
		} else {
			w.expr(e.Fun, false)
		}
		for _, a := range e.Args {
			if fl, ok := a.(*ast.FuncLit); ok {
				w.scoped(func() { w.stmts(fl.Body.List) })
				continue
			}
			w.expr(a, false)
			w.facts.escape(a)
		}
		if w.onCall != nil {
			w.onCall(e)
		}
	case *ast.FuncLit:
		w.scoped(func() {
			w.facts.detach()
			w.stmts(e.Body.List)
		})
	case *ast.UnaryExpr:
		// Handing out the address of a field or element lets the
		// recipient write it.
		addr := false
		if e.Op == token.AND {
			switch e.X.(type) {
			case *ast.SelectorExpr, *ast.IndexExpr:
				addr = true
			}
		}
		w.expr(e.X, addr)
	case *ast.StarExpr:
		w.expr(e.X, false)
	case *ast.ParenExpr:
		w.expr(e.X, write)
	case *ast.IndexExpr:
		w.expr(e.X, write)
		w.expr(e.Index, false)
	case *ast.SliceExpr:
		w.expr(e.X, false)
		w.expr(e.Low, false)
		w.expr(e.High, false)
		w.expr(e.Max, false)
	case *ast.BinaryExpr:
		w.expr(e.X, false)
		if e.Op != token.LAND {
			w.expr(e.Y, false)
			return
		}
		// The right operand of && runs only when the left is true.
		w.scoped(func() {
			w.facts.assume(e.X, true)
			w.expr(e.Y, false)
		})
	case *ast.TypeAssertExpr:
		w.expr(e.X, false)
	case *ast.CompositeLit:
		// A struct literal's keys are field names, not expressions.
		structLit := false
		if t := w.p.Info.TypeOf(e); t != nil {
			_, structLit = derefType(t).Underlying().(*types.Struct)
		}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if !structLit {
					w.expr(kv.Key, false)
				}
				el = kv.Value
			}
			w.expr(el, false)
			w.facts.escape(el)
		}
	}
}

// terminates reports whether a block always transfers control out
// (return, panic, continue, break, goto).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// isCompositeCreation reports whether e constructs a value in place:
// T{...} or &T{...}.
func isCompositeCreation(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

// exprString renders a simple expression (identifiers and selector
// chains) to its source form, the key of every fact; anything more
// complex renders uniquely by position so it never matches a fact.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	default:
		return fmt.Sprintf("<expr@%d>", e.Pos())
	}
}
