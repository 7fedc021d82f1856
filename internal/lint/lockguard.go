package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
)

// LockGuardRule enforces annotated mutex discipline: a struct field whose
// declaration carries a "guarded by <mu>" comment may only be read or
// written while <mu> is held on the same receiver expression. The serve
// job store, the fabric coordinator's membership map, and the obs
// registry all share state between HTTP handlers, worker goroutines, and
// heartbeat loops; the race detector only catches the interleavings a
// test happens to schedule, while the annotation makes the locking
// contract part of the type declaration and this rule makes violating it
// a build failure.
//
//	type store struct {
//	    mu   sync.Mutex
//	    jobs map[string]*job // guarded by mu
//	}
//
// Dominance is lexical (see walk.go and locks.go): Lock/RLock establish
// the guard, Unlock drops it, deferred Unlock holds it to function end,
// and conditional branches do not leak acquisitions. Reads require at
// least RLock when the guard is a sync.RWMutex; writes always require
// Lock.
//
// Two conventions mark a function as entered with the lock held: a
// "Callers hold <mu>" doc sentence or a method name ending in "Locked".
// Values freshly constructed from a composite literal in the same
// function are exempt until they escape (constructors initialize
// fields before the value is shared, and no lock can be required yet).
type LockGuardRule struct {
	// Packages selects where the rule applies (matchPackage semantics;
	// empty selects every package, since annotations opt structs in).
	Packages []string
}

// NewLockGuardRule returns the project configuration: every package —
// the annotations themselves scope the rule.
func NewLockGuardRule() *LockGuardRule { return &LockGuardRule{} }

// Name implements Rule.
func (r *LockGuardRule) Name() string { return "lockguard" }

// Doc implements Rule.
func (r *LockGuardRule) Doc() string {
	return `fields annotated "guarded by <mu>" may only be accessed with the mutex held`
}

// guardedByRe extracts the mutex name from a field annotation.
var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardInfo records one annotated field's contract.
type guardInfo struct {
	mu string // guarding mutex field name on the same struct
	rw bool   // guard is a sync.RWMutex (RLock suffices for reads)
}

// Check implements Rule.
func (r *LockGuardRule) Check(p *Package) []Finding {
	if !matchPackage(p.Path, r.Packages) {
		return nil
	}
	guards, out := collectGuards(p)
	if len(guards) == 0 {
		return out
	}
	for _, fd := range funcDecls(p) {
		f := newLockFacts(p, entryHeldLocks(p, fd))
		w := &scopeWalker{p: p, facts: f}
		w.onAccess = func(sel *ast.SelectorExpr, write bool) {
			selInfo, ok := p.Info.Selections[sel]
			if !ok || selInfo.Kind() != types.FieldVal {
				return
			}
			fv, ok := selInfo.Obj().(*types.Var)
			if !ok {
				return
			}
			g, ok := guards[fv]
			if !ok {
				return
			}
			if id, isIdent := sel.X.(*ast.Ident); isIdent && f.fresh[id.Name] {
				return
			}
			need := exprString(sel.X) + "." + g.mu
			l, held := f.held[need]
			if held && (l.mode == 'w' || !write) {
				return
			}
			verb := "read"
			if write {
				verb = "write"
			}
			want := need + ".Lock"
			if g.rw && !write {
				want = need + ".RLock"
			} else if held && l.mode == 'r' && write {
				verb = "write (under RLock only)"
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(sel.Sel.Pos()),
				Rule: r.Name(),
				Msg: fmt.Sprintf("%s of %s requires holding %s (field is guarded by %s); acquire the lock or justify with //smtlint:ignore lockguard <reason>",
					verb, exprString(sel), want, g.mu),
			})
		}
		w.stmts(fd.Body.List)
	}
	return out
}

// collectGuards gathers the package's "guarded by" field annotations,
// validating each names a mutex field of the same struct. Malformed
// annotations come back as findings — a guard naming a missing mutex
// would silently enforce nothing.
func collectGuards(p *Package) (map[*types.Var]guardInfo, []Finding) {
	guards := map[*types.Var]guardInfo{}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			// Index the struct's mutex fields by name first.
			var mutexes map[string]bool // name -> is RWMutex
			if tn, ok := p.Info.Defs[ts.Name].(*types.TypeName); ok {
				if t, ok := tn.Type().Underlying().(*types.Struct); ok {
					mutexes = mutexFields(t)
				}
			}
			for _, fl := range st.Fields.List {
				ann := ""
				if fl.Doc != nil {
					ann += fl.Doc.Text() + "\n"
				}
				if fl.Comment != nil {
					ann += fl.Comment.Text()
				}
				m := guardedByRe.FindStringSubmatch(ann)
				if m == nil {
					continue
				}
				mu := m[1]
				rw, ok := mutexes[mu]
				if !ok {
					out = append(out, Finding{
						Pos:  p.Fset.Position(fl.Pos()),
						Rule: "lockguard",
						Msg:  fmt.Sprintf("field declares 'guarded by %s' but %s has no sync.Mutex/RWMutex field named %s", mu, ts.Name.Name, mu),
					})
					continue
				}
				for _, name := range fl.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						guards[v] = guardInfo{mu: mu, rw: rw}
					}
				}
			}
			return true
		})
	}
	return guards, out
}
