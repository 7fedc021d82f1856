package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CtxPropRule enforces context propagation on request paths. In the
// service layers a handler's context carries the request deadline, the
// client-gone signal, and (since PR 7) the trace parent; a helper that
// calls context.Background(), sleeps unconditionally, or issues a
// context-free HTTP request detaches all three — shutdown hangs on it,
// cancellation never reaches it, and its spans orphan.
//
// The rule roots the intra-package call graph at every function that
// receives a context.Context or *http.Request parameter (handlers,
// worker entry points, RPC helpers) and flags, in any function reachable
// from such a root, calls to:
//
//   - context.Background / context.TODO — manufacture a detached context
//     on a path that already has one,
//   - time.Sleep — unconditional blocking; a select on time.After and
//     ctx.Done cancels,
//   - http.NewRequest — use http.NewRequestWithContext,
//   - http.Get/Post/Head/PostForm and the equivalent *http.Client
//     methods — they build context-free requests internally.
//
// Functions that legitimately own a fresh context (constructors like
// serve.New, which mints the server's base context before any request
// exists) have no context parameter and are unreachable from rooted
// functions, so they are not flagged. Deliberate detachment on a request
// path carries an //smtlint:ignore ctxprop justification.
type CtxPropRule struct {
	// Packages selects where the rule applies (matchPackage semantics).
	Packages []string
}

// NewCtxPropRule returns the project configuration: the service layers
// whose request paths carry contexts.
func NewCtxPropRule() *CtxPropRule {
	return &CtxPropRule{Packages: []string{"internal/serve", "internal/fabric", "internal/sweep"}}
}

// Name implements Rule.
func (r *CtxPropRule) Name() string { return "ctxprop" }

// Doc implements Rule.
func (r *CtxPropRule) Doc() string {
	return "code reachable from a ctx-carrying entry point must not drop the context (Background/TODO, bare Sleep, context-free HTTP)"
}

// Check implements Rule.
func (r *CtxPropRule) Check(p *Package) []Finding {
	if !matchPackage(p.Path, r.Packages) {
		return nil
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	var roots []*types.Func
	for _, fd := range funcDecls(p) {
		fn, ok := p.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		decls[fn] = fd
		if hasCtxParam(fn) {
			roots = append(roots, fn)
		}
	}
	reached, chain := reachable(p, decls, roots, nil)
	var out []Finding
	for _, fn := range reached {
		path := chain(fn)
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			bad, fix := ctxDropCall(p, call)
			if bad == "" {
				return true
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(call.Pos()),
				Rule: r.Name(),
				Msg: fmt.Sprintf("%s on a context-carrying path (%s) drops the caller's context; %s or justify with //smtlint:ignore ctxprop <reason>",
					bad, path, fix),
			})
			return true
		})
	}
	return out
}

// hasCtxParam reports whether fn takes a context.Context or
// *net/http.Request parameter.
func hasCtxParam(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isNamedType(t, "context", "Context") || isNamedType(t, "net/http", "Request") {
			return true
		}
	}
	return false
}

// ctxDropCall classifies a call that drops the context, returning a
// description and the sanctioned fix ("" when the call is fine).
func ctxDropCall(p *Package, call *ast.CallExpr) (string, string) {
	fn := staticCallee(p, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "context":
		if name == "Background" || name == "TODO" {
			return "context." + name + "()", "thread the incoming ctx through"
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep", "select on time.After and ctx.Done instead"
		}
	case "net/http":
		switch name {
		case "NewRequest":
			return "http.NewRequest", "use http.NewRequestWithContext(ctx, ...)"
		case "Get", "Post", "Head", "PostForm":
			// Only the package-level helpers and (*http.Client) methods
			// build context-free requests; same-named methods on other
			// net/http types (http.Header.Get) are fine.
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil {
				return "", ""
			}
			if recv := sig.Recv(); recv != nil {
				if !isNamedType(recv.Type(), "net/http", "Client") {
					return "", ""
				}
				return "(*http.Client)." + name, "build the request with http.NewRequestWithContext and Do it"
			}
			return "http." + name, "build the request with http.NewRequestWithContext and Do it"
		}
	}
	return "", ""
}
