package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// RecorderGuardRule enforces the telemetry overhead contract inside the
// pipeline hot stages: a telemetry.Recorder (or telemetry.Sink) hanging
// off the machine is nil whenever tracing is off, and every dereference
// must therefore be dominated by a nil check. A missed guard is a
// guaranteed panic the moment someone runs without -trace — but only on
// the specific path that dereferences, so it survives ordinary testing.
//
// The analysis is lexical, not a full dataflow: it runs on the
// scopeWalker (walk.go) with guardFacts, and an access to expression E,
// read or written, is considered guarded when it appears
//
//   - inside the then-branch of "if E != nil",
//   - inside the else-branch of "if E == nil",
//   - after "if E == nil { return/panic/continue/break }" in the same
//     block,
//   - on the right of "E != nil && ..." in any expression,
//   - inside a function literal written where one of the above holds, or
//   - through an alias "v := E" that is itself guarded by any of the
//     above, or a local "v := &T{...}".
//
// Guarded-ness is tracked by the expression's printed form ("m.rec"),
// which is exactly as precise as the hot-loop style this repo uses. The
// escape hatch for exotic control flow is //smtlint:ignore.
type RecorderGuardRule struct {
	// Packages selects where the rule applies (matchPackage semantics).
	Packages []string
	// Types lists the guarded pointer/interface types as
	// "import/path.TypeName".
	Types []string
}

// NewRecorderGuardRule returns the rule configured for this repository:
// inside internal/pipeline, *telemetry.Recorder and telemetry.Sink
// values must be nil-checked before use.
func NewRecorderGuardRule() *RecorderGuardRule {
	return &RecorderGuardRule{
		Packages: []string{"internal/pipeline"},
		Types: []string{
			"smthill/internal/telemetry.Recorder",
			"smthill/internal/telemetry.Sink",
		},
	}
}

// Name implements Rule.
func (r *RecorderGuardRule) Name() string { return "recorder-guard" }

// Doc implements Rule.
func (r *RecorderGuardRule) Doc() string {
	return "telemetry recorder/sink dereferences in pipeline code must be behind a nil check"
}

// Check implements Rule.
func (r *RecorderGuardRule) Check(p *Package) []Finding {
	if !matchPackage(p.Path, r.Packages) {
		return nil
	}
	var out []Finding
	for _, fd := range funcDecls(p) {
		f := &guardFacts{p: p, rule: r, nonNil: map[string]bool{}}
		// A receiver or parameter that is itself one of the guarded types
		// arrives with its nil-ness already decided by the caller's guard;
		// treat it as guarded so helper methods on the recorder types (and
		// helpers taking a checked recorder) don't re-check.
		for _, field := range funcParams(fd) {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil && r.guards(obj.Type()) {
					f.nonNil[name.Name] = true
				}
			}
		}
		w := &scopeWalker{p: p, facts: f}
		w.onAccess = func(sel *ast.SelectorExpr, _ bool) {
			if !r.guards(p.Info.TypeOf(sel.X)) {
				return
			}
			if x := exprString(sel.X); !f.nonNil[x] {
				out = append(out, Finding{
					Pos:  p.Fset.Position(sel.Pos()),
					Rule: r.Name(),
					Msg: fmt.Sprintf("%s.%s dereferences a telemetry recorder/sink without a dominating %s != nil check (tracing-off runs carry nil here)",
						x, sel.Sel.Name, x),
				})
			}
		}
		w.stmts(fd.Body.List)
	}
	return out
}

// guards reports whether t, behind at most one pointer, is one of the
// rule's guarded types.
func (r *RecorderGuardRule) guards(t types.Type) bool {
	for _, want := range r.Types {
		if i := strings.LastIndex(want, "."); i >= 0 && isNamedType(t, want[:i], want[i+1:]) {
			return true
		}
	}
	return false
}

// funcParams yields the receiver and parameter fields of a function.
func funcParams(fd *ast.FuncDecl) []*ast.Field {
	var out []*ast.Field
	if fd.Recv != nil {
		out = append(out, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		out = append(out, fd.Type.Params.List...)
	}
	return out
}

// guardFacts is recorder-guard's factSet: the printed forms of the
// guarded-type expressions known to be non-nil.
type guardFacts struct {
	p      *Package
	rule   *RecorderGuardRule
	nonNil map[string]bool
}

func (f *guardFacts) clone() factSet {
	c := *f
	c.nonNil = maps.Clone(f.nonNil)
	return &c
}

func (f *guardFacts) restore(saved factSet) { *f = *saved.(*guardFacts) }

func (f *guardFacts) scopesBlocks() bool { return true }

// detach keeps every guard: a closure is taken to run while the guards
// around it still hold.
func (f *guardFacts) detach() {}

// assume adds the guards cond being truth implies: a nil check, or,
// when an && holds, the guards each operand implies.
func (f *guardFacts) assume(cond ast.Expr, truth bool) {
	if be, ok := ast.Unparen(cond).(*ast.BinaryExpr); ok && be.Op == token.LAND && truth {
		f.assume(be.X, true)
		f.assume(be.Y, true)
		return
	}
	if e, nonNil, ok := f.nilCheck(cond); ok && nonNil == truth {
		f.nonNil[e] = true
	}
}

// bind makes "v := E" share E's guard and "v := &T{...}" non-nil; any
// other assignment to v drops its guard.
func (f *guardFacts) bind(name string, rhs ast.Expr) {
	if isCompositeCreation(rhs) || (rhs != nil && f.nonNil[exprString(rhs)]) {
		f.nonNil[name] = true
	} else {
		delete(f.nonNil, name)
	}
}

func (f *guardFacts) escape(ast.Expr) {}

func (f *guardFacts) lockOp(ast.Expr, string) {}

// nilCheck matches "E != nil" (nonNil) and "E == nil" where E has a
// guarded type, returning E's printed form.
func (f *guardFacts) nilCheck(cond ast.Expr) (e string, nonNil, ok bool) {
	be, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (be.Op != token.NEQ && be.Op != token.EQL) {
		return "", false, false
	}
	x := be.X
	switch {
	case isNil(f.p, be.Y):
	case isNil(f.p, be.X):
		x = be.Y
	default:
		return "", false, false
	}
	if !f.rule.guards(f.p.Info.TypeOf(x)) {
		return "", false, false
	}
	return exprString(x), be.Op == token.NEQ, true
}

// isNil reports whether e is the untyped nil.
func isNil(p *Package, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := p.Info.Uses[id].(*types.Nil)
	return isNilObj || id.Name == "nil"
}
