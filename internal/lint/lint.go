// Package lint is smtlint's rule engine: a zero-dependency static
// analyzer, built on the standard library's go/ast, go/parser, and
// go/types, that enforces the project's determinism and instrumentation
// invariants.
//
// The simulator's results are only trustworthy because every run is
// bit-deterministic: the hill-climbing gradient measurements (Section 4
// of the paper) compare IPC deltas of a few percent between epochs, so a
// stray wall-clock read, global math/rand draw, or map-iteration order
// leaking into simulator state or experiment output silently corrupts
// the very signal the learner climbs. These hazards do not crash tests;
// they skew results. The rules here make them build failures instead:
//
//   - nondeterminism (nondet.go): forbid wall-clock and process-entropy
//     sources in simulation packages; internal/rng is the sanctioned
//     randomness source, and the orchestration layers (internal/sweep,
//     internal/telemetry) may read the wall clock for reporting.
//   - map-order (maporder.go): flag ranging over a map when the body
//     feeds an order-sensitive sink (slice append, printing, writers,
//     hashes) without sorting keys first.
//   - recorder-guard (recorder.go): every dereference of a
//     telemetry.Recorder or telemetry.Sink inside internal/pipeline must
//     be dominated by a nil check — the telemetry overhead contract.
//   - float-compare (floatcmp.go): forbid ==/!= on floating-point
//     expressions outside _test.go files (sentinel comparisons against
//     exact zero are allowed).
//   - hotalloc (hotalloc.go): every append/make reachable from
//     Machine.Cycle's intra-package call graph must carry an ignore
//     justification — the steady-state zero-allocation contract of the
//     cycle path, enforced statically alongside the AllocsPerRun
//     regression test.
//   - metricname (metricname.go): literal metric names registered on an
//     obs.Registry must match the Prometheus charset and be unique per
//     package — registration panics otherwise, but only when the
//     registering component actually starts.
//
// The concurrency-correctness suite extends the determinism rules to the
// service layers (serve worker pools, fabric heartbeats, obs federation),
// whose bugs corrupt figures through races rather than through clocks:
//
//   - lockguard (lockguard.go): struct fields annotated "guarded by <mu>"
//     may only be touched while that mutex is held on the same receiver
//     expression; lexical Lock/Unlock dominance, with entry-held
//     conventions for "Callers hold mu" docs, *Locked method names, and
//     //smtlint:locked directives.
//   - lockorder (lockorder.go, a ModuleRule): the whole-module
//     lock-acquisition graph must be acyclic (cycles are potential
//     deadlocks), and no lock class may be re-acquired while held
//     (self-deadlock, including RLock→Lock upgrades).
//   - ctxprop (ctxprop.go): code reachable from a context-carrying entry
//     point in serve/fabric/sweep must not drop the caller's context —
//     no context.Background()/TODO(), bare time.Sleep, or context-free
//     HTTP requests on request paths.
//   - goleak (goleak.go): a `go` statement whose body loops forever must
//     have an exit tied to a context or done channel; the lint/leakcheck
//     test helper enforces the same contract dynamically.
//
// Rules are individually constructable and configurable so tests can
// point them at fixture packages; DefaultRules returns the project
// configuration that cmd/smtlint enforces.
//
// Findings can be suppressed per line with a trailing or preceding
// comment of the form:
//
//	//smtlint:ignore <rule-name> <reason>
//
// The reason is mandatory by convention (the directive is grep-able), but
// not enforced.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule is the reporting rule's name.
	Rule string
	// Msg describes the violation and the sanctioned alternative.
	Msg string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Rule is one named, independently testable invariant check.
type Rule interface {
	// Name identifies the rule in findings and ignore directives.
	Name() string
	// Doc is a one-line description of what the rule enforces.
	Doc() string
	// Check analyzes one loaded package and returns its violations.
	Check(p *Package) []Finding
}

// ModuleRule is a rule whose analysis spans package boundaries (the lock
// acquisition graph crosses serve -> obs, for example). A ModuleRule's
// per-package Check returns nil; Run and RunAudit call CheckModule once
// with every loaded package.
type ModuleRule interface {
	Rule
	// CheckModule analyzes the whole module at once.
	CheckModule(pkgs []*Package) []Finding
}

// DefaultRules returns the project rule set cmd/smtlint enforces, with
// the allowlists described in DESIGN.md.
func DefaultRules() []Rule {
	return []Rule{
		NewNondetRule(),
		NewMapOrderRule(),
		NewRecorderGuardRule(),
		NewFloatCompareRule(),
		NewHotAllocRule(),
		NewMetricNameRule(),
		NewLockGuardRule(),
		NewLockOrderRule(),
		NewCtxPropRule(),
		NewGoLeakRule(),
	}
}

// directive is one //smtlint:ignore comment, addressed by position and
// the rule name as written (possibly "*").
type directive struct {
	// File is the directive's filename as recorded in the file set.
	File string
	// Line is the directive's 1-based line.
	Line int
	// Rule is the rule name the directive names, or "*".
	Rule string
	// Col is the directive's column, for stale-directive findings.
	Col int
}

// Key renders the directive's identity for used-set bookkeeping.
func (d directive) Key() string {
	return fmt.Sprintf("%s:%d:%s", d.File, d.Line, d.Rule)
}

// Run applies every rule (per-package and module-wide) to the packages
// and returns the surviving findings sorted by position. Findings on a
// line carrying (or directly following a line carrying) an
// "//smtlint:ignore <rule>" directive are dropped.
func Run(rules []Rule, pkgs []*Package) []Finding {
	used := map[string]bool{}
	var out []Finding
	for _, p := range pkgs {
		fs, _ := checkPackage(rules, p, used)
		out = append(out, fs...)
	}
	out = append(out, checkModuleRules(rules, pkgs, used)...)
	sortFindings(out)
	return out
}

// RunAudit is Run plus the unusedignore audit: directives that suppressed
// no finding across the whole run come back as findings of rule
// "unusedignore", so stale justifications fail the build like any other
// violation.
func RunAudit(rules []Rule, pkgs []*Package) []Finding {
	used := map[string]bool{}
	var out []Finding
	var all []directive
	for _, p := range pkgs {
		fs, dirs := checkPackage(rules, p, used)
		out = append(out, fs...)
		all = append(all, dirs...)
	}
	out = append(out, checkModuleRules(rules, pkgs, used)...)
	out = append(out, staleDirectives(all, used)...)
	sortFindings(out)
	return out
}

// checkPackage applies the per-package rules to p, filters the findings
// through p's ignore directives, and returns the survivors along with
// every directive in the package. Directives that suppressed at least
// one finding are recorded in used (keyed by directive.Key); pass nil to
// skip the bookkeeping.
func checkPackage(rules []Rule, p *Package, used map[string]bool) ([]Finding, []directive) {
	dirs := directives(p)
	idx := buildIgnoreIndex(dirs)
	var out []Finding
	for _, r := range rules {
		if _, isModule := r.(ModuleRule); isModule {
			continue
		}
		out = append(out, filterFindings(r.Check(p), dirs, idx, used)...)
	}
	return out, dirs
}

// checkModuleRules applies the module-wide rules once over all packages,
// filtering findings through the directives of every package.
func checkModuleRules(rules []Rule, pkgs []*Package, used map[string]bool) []Finding {
	var mods []ModuleRule
	for _, r := range rules {
		if mr, ok := r.(ModuleRule); ok {
			mods = append(mods, mr)
		}
	}
	if len(mods) == 0 {
		return nil
	}
	var dirs []directive
	for _, p := range pkgs {
		dirs = append(dirs, directives(p)...)
	}
	idx := buildIgnoreIndex(dirs)
	var out []Finding
	for _, mr := range mods {
		out = append(out, filterFindings(mr.CheckModule(pkgs), dirs, idx, used)...)
	}
	return out
}

// staleDirectives returns an "unusedignore" finding for every directive
// in all whose key is absent from used: an ignore that suppresses
// nothing is a stale justification and must be deleted.
func staleDirectives(all []directive, used map[string]bool) []Finding {
	var out []Finding
	for _, d := range all {
		if used[d.Key()] {
			continue
		}
		out = append(out, Finding{
			Pos:  token.Position{Filename: d.File, Line: d.Line, Column: d.Col},
			Rule: "unusedignore",
			Msg:  fmt.Sprintf("//smtlint:ignore %s directive suppresses no finding; delete it (or fix the rule name)", d.Rule),
		})
	}
	return out
}

// sortFindings orders findings by file, line, column, then rule.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Rule < out[j].Rule
	})
}

// ignoreKey addresses one suppressed (file, line, rule) combination.
type ignoreKey struct {
	file string
	line int
	rule string
}

// buildIgnoreIndex maps each (file, line, rule) an ignore directive
// covers — its own line and the following line, so it works both
// trailing a statement and on the line above it — to the directive's
// index in dirs.
func buildIgnoreIndex(dirs []directive) map[ignoreKey]int {
	idx := map[ignoreKey]int{}
	for i, d := range dirs {
		idx[ignoreKey{d.File, d.Line, d.Rule}] = i
		idx[ignoreKey{d.File, d.Line + 1, d.Rule}] = i
	}
	return idx
}

// filterFindings drops findings covered by a matching (or wildcard)
// directive, marking the covering directive used.
func filterFindings(fs []Finding, dirs []directive, idx map[ignoreKey]int, used map[string]bool) []Finding {
	var out []Finding
	for _, f := range fs {
		i, ok := idx[ignoreKey{f.Pos.Filename, f.Pos.Line, f.Rule}]
		if !ok {
			i, ok = idx[ignoreKey{f.Pos.Filename, f.Pos.Line, "*"}]
		}
		if ok {
			if used != nil {
				used[dirs[i].Key()] = true
			}
			continue
		}
		out = append(out, f)
	}
	return out
}

// directives collects the package's "//smtlint:ignore" comments.
func directives(p *Package) []directive {
	var out []directive
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "smtlint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "smtlint:ignore"))
				rule := "*"
				if len(fields) > 0 {
					rule = fields[0]
				}
				pos := p.Fset.Position(c.Pos())
				out = append(out, directive{File: pos.Filename, Line: pos.Line, Rule: rule, Col: pos.Column})
			}
		}
	}
	return out
}

// matchPackage reports whether path is, or is a subpackage of, any entry
// in pats. Entries match on full import path or on a "/"-delimited
// suffix, so both "smthill/internal/pipeline" and "internal/pipeline"
// select the pipeline package. An empty pats matches every package.
func matchPackage(path string, pats []string) bool {
	if len(pats) == 0 {
		return true
	}
	for _, pat := range pats {
		if path == pat || strings.HasSuffix(path, "/"+pat) {
			return true
		}
		if strings.HasPrefix(path, pat+"/") || strings.Contains(path, "/"+pat+"/") {
			return true
		}
	}
	return false
}

// funcDecls yields every function body in the package along with its
// enclosing file (for position context).
func funcDecls(p *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
