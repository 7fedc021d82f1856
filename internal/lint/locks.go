package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"regexp"
	"strings"
)

// This file holds the lock rules' fact set for the scopeWalker
// (walk.go): the mutexes held at each point of a function body and the
// locals freshly built from composite literals that have not escaped.
// Both lockguard (field accesses must be dominated by the right Lock) and
// lockorder (the cross-function acquisition graph must be acyclic) walk
// with it.
//
// A deferred Unlock keeps the mutex held to the end of the function, and
// a lock taken inside a plain {} block stays held after it. Goroutine
// bodies and stored closures start with no locks (the spawner's locks
// are not ordered with respect to them), while function literals passed
// as call arguments inherit the current set.

// heldLock describes one held mutex.
type heldLock struct {
	// mode is 'w' for Lock, 'r' for RLock.
	mode byte
	// class is the module-wide lock-class identity ("pkg.Type.field" or
	// "pkg.var"), or "" for locals and parameters.
	class string
}

// lockFacts is the lock rules' factSet.
type lockFacts struct {
	p     *Package
	held  map[string]heldLock // mutex exprString -> held state
	fresh map[string]bool     // locals created from composite literals, not yet escaped
	// onAcquire fires on Lock/RLock, before held is updated, so the
	// callback sees the locks held across the acquisition.
	onAcquire func(expr string, l heldLock, pos token.Pos)
}

// newLockFacts returns the facts on entry to a function whose callers
// hold entry.
func newLockFacts(p *Package, entry map[string]heldLock) *lockFacts {
	f := &lockFacts{p: p, held: map[string]heldLock{}, fresh: map[string]bool{}}
	maps.Copy(f.held, entry)
	return f
}

func (f *lockFacts) clone() factSet {
	c := *f
	c.held, c.fresh = maps.Clone(f.held), maps.Clone(f.fresh)
	return &c
}

func (f *lockFacts) restore(saved factSet) { *f = *saved.(*lockFacts) }

func (f *lockFacts) scopesBlocks() bool { return false }

func (f *lockFacts) detach() {
	f.held, f.fresh = map[string]heldLock{}, map[string]bool{}
}

func (f *lockFacts) assume(ast.Expr, bool) {}

// bind makes name fresh when rhs constructs a value in place.
func (f *lockFacts) bind(name string, rhs ast.Expr) {
	if isCompositeCreation(rhs) {
		f.fresh[name] = true
	} else {
		delete(f.fresh, name)
	}
}

// escape drops the freshness of e when it is a bare local (or its
// address): passing it to a call, returning it, sending it, or aliasing
// it publishes the value to code that may run under different locks.
func (f *lockFacts) escape(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		delete(f.fresh, e.Name)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			f.escape(e.X)
		}
	case *ast.ParenExpr:
		f.escape(e.X)
	}
}

func (f *lockFacts) lockOp(mu ast.Expr, method string) {
	key := exprString(mu)
	switch method {
	case "Lock", "RLock", "TryLock", "TryRLock":
		mode := byte('w')
		if method == "RLock" || method == "TryRLock" {
			mode = 'r'
		}
		l := heldLock{mode: mode, class: lockClass(f.p, mu)}
		if f.onAcquire != nil {
			f.onAcquire(key, l, mu.Pos())
		}
		f.held[key] = l
	case "Unlock", "RUnlock":
		delete(f.held, key)
	}
}

// asLockOp recognizes a call as a sync.Mutex/RWMutex lock-family method
// on an explicit receiver expression, returning the mutex expression and
// method name. Embedded (promoted) mutex methods are not recognized —
// the project convention is a named mu field.
func asLockOp(p *Package, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, "", false
	}
	t := p.Info.TypeOf(sel.X)
	if !isNamedType(t, "sync", "Mutex") && !isNamedType(t, "sync", "RWMutex") {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// lockClass computes the module-wide identity of a mutex expression:
// "pkg.Type.field" for a struct field, "pkg.var" for a package-level
// variable, "" for locals and parameters (which cannot participate in a
// cross-function ordering).
func lockClass(p *Package, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return lockClass(p, e.X)
	case *ast.Ident:
		v, ok := p.Info.Uses[e].(*types.Var)
		if ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
		return ""
	case *ast.SelectorExpr:
		selInfo, ok := p.Info.Selections[e]
		if !ok || selInfo.Kind() != types.FieldVal {
			// Could be a qualified package-level var: pkg.someMu.
			if obj, ok := p.Info.Uses[e.Sel].(*types.Var); ok && !obj.IsField() &&
				obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + obj.Name()
			}
			return ""
		}
		f, ok := selInfo.Obj().(*types.Var)
		if !ok {
			return ""
		}
		if named, ok := derefType(selInfo.Recv()).(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + f.Name()
		}
		return ""
	}
	return ""
}

// callersHoldRe matches the doc convention "Callers hold mu." (and the
// singular/must variants) that fabric and sweep already use.
var callersHoldRe = regexp.MustCompile(`(?i)\bcallers?\s+(?:must\s+)?holds?\s+([A-Za-z_][A-Za-z0-9_]*)`)

// entryHeldLocks returns the lock set a function's callers are
// documented to hold on entry, keyed by "<recv>.<mu>" (or "<mu>" for a
// package-level mutex). Two conventions grant entry-held state:
//
//   - a doc sentence matching "Callers hold <mu>",
//   - a method name ending in "Locked", which grants every mutex field
//     of the receiver type.
func entryHeldLocks(p *Package, fd *ast.FuncDecl) map[string]heldLock {
	recv, prefix := "", ""
	var mus map[string]bool
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recv = fd.Recv.List[0].Names[0].Name
		prefix, mus = recvMutexes(p, fd)
	}
	out := map[string]heldLock{}
	if recv != "" && strings.HasSuffix(fd.Name.Name, "Locked") {
		for n := range mus {
			out[recv+"."+n] = heldLock{mode: 'w', class: prefix + n}
		}
	}
	for _, m := range callersHoldRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
		n := m[1]
		if _, ok := mus[n]; ok {
			out[recv+"."+n] = heldLock{mode: 'w', class: prefix + n}
			continue
		}
		// Fall back to a package-level mutex of that name.
		class := ""
		if v, ok := p.Types.Scope().Lookup(n).(*types.Var); ok &&
			(isNamedType(v.Type(), "sync", "Mutex") || isNamedType(v.Type(), "sync", "RWMutex")) {
			class = p.Types.Name() + "." + n
		}
		out[n] = heldLock{mode: 'w', class: class}
	}
	return out
}

// recvMutexes returns the lock-class prefix ("pkg.Type.") and the mutex
// fields (see mutexFields) of fd's receiver struct type, or a nil map
// when the receiver is not a struct.
func recvMutexes(p *Package, fd *ast.FuncDecl) (string, map[string]bool) {
	fn, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return "", nil
	}
	named, ok := derefType(fn.Type().(*types.Signature).Recv().Type()).(*types.Named)
	if !ok {
		return "", nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", nil
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + ".", mutexFields(st)
}

// mutexFields maps the name of each sync.Mutex or sync.RWMutex field of
// st (possibly behind a pointer) to whether it is an RWMutex.
func mutexFields(st *types.Struct) map[string]bool {
	out := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		t := st.Field(i).Type()
		if rw := isNamedType(t, "sync", "RWMutex"); rw || isNamedType(t, "sync", "Mutex") {
			out[st.Field(i).Name()] = rw
		}
	}
	return out
}
