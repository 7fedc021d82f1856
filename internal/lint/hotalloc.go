package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// HotAllocRule enforces the simulator's zero-allocation contract: in the
// steady state, Machine.Cycle must not allocate (the alloc regression
// test pins AllocsPerRun to zero, and the cycle benchmarks report 0
// B/op). The rule builds the intra-package static call graph rooted at
// the hot-loop entry point and flags every `append` and `make` reachable
// from it. Allocation on the hot path is not always wrong — amortised
// high-water growth of a recycled buffer is the standard idiom here —
// but it must be deliberate, so every surviving site carries an
//
//	//smtlint:ignore hotalloc <why this append cannot grow unboundedly>
//
// justification. A new append introduced into the cycle path without one
// fails the build instead of silently costing an allocation per cycle.
//
// Only calls resolved to package-level functions and methods of the same
// package are traversed; cross-package calls and dynamic (interface)
// dispatch are outside the graph. Cold diagnostic entry points listed in
// Cold — the invariant checkers and the telemetry recording path, which
// run with checks or recording explicitly enabled and are outside the
// steady-state contract — are neither traversed nor scanned.
type HotAllocRule struct {
	// Packages selects where the rule applies (matchPackage semantics).
	Packages []string
	// Roots identify the hot-loop entry points; the walk starts from
	// every root that exists in the package, and a function reached
	// from any of them is on the hot path.
	Roots []FuncRef
	// Cold lists function (or method) names excluded from the walk.
	Cold []string
}

// FuncRef names a package-level method: the bare receiver type name and
// the method name.
type FuncRef struct {
	Recv string
	Name string
}

// NewHotAllocRule returns the project configuration: the cycle path of
// internal/pipeline, rooted at the single-machine loop (Machine.Cycle,
// and Machine.CycleN with its quiet-cycle skip) and the lock-step batch
// loop (MachineBatch.CycleAll — the refill path is amortised per epoch
// and deliberately outside the contract), with the invariant-check and
// telemetry-recording paths cold.
func NewHotAllocRule() *HotAllocRule {
	return &HotAllocRule{
		Packages: []string{"internal/pipeline"},
		Roots: []FuncRef{
			{Recv: "Machine", Name: "Cycle"},
			{Recv: "Machine", Name: "CycleN"},
			{Recv: "MachineBatch", Name: "CycleAll"},
		},
		Cold: []string{
			"checkCycle", "checkCommit", "checkDrain", "CheckInvariants",
			"liveSlots", "record",
		},
	}
}

// Name implements Rule.
func (r *HotAllocRule) Name() string { return "hotalloc" }

// Doc implements Rule.
func (r *HotAllocRule) Doc() string {
	return "append/make reachable from the hot-loop root must carry an //smtlint:ignore hotalloc justification"
}

// recvTypeName returns the bare type name of a method receiver, or ""
// for plain functions.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// funcLabel renders a function for findings: "Recv.Name" for methods,
// "Name" otherwise.
func funcLabel(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// Check implements Rule.
func (r *HotAllocRule) Check(p *Package) []Finding {
	if !matchPackage(p.Path, r.Packages) {
		return nil
	}
	cold := map[string]bool{}
	for _, name := range r.Cold {
		cold[name] = true
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	var roots []*types.Func
	for _, fd := range funcDecls(p) {
		fn, ok := p.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		decls[fn] = fd
		for _, root := range r.Roots {
			if fd.Name.Name == root.Name && recvTypeName(fd) == root.Recv {
				roots = append(roots, fn)
			}
		}
	}
	reached, chain := reachable(p, decls, roots, func(fn *types.Func) bool { return cold[fn.Name()] })
	var out []Finding
	for _, fn := range reached {
		path := chain(fn)
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			b, ok := p.Info.Uses[id].(*types.Builtin)
			if !ok || (b.Name() != "append" && b.Name() != "make") {
				return true
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(call.Pos()),
				Rule: r.Name(),
				Msg: fmt.Sprintf("%s on the hot path (%s) allocates; recycle a pre-sized buffer or justify with //smtlint:ignore hotalloc <reason>",
					b.Name(), path),
			})
			return true
		})
	}
	return out
}
