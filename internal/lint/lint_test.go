package lint

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoises one Loader across all tests: the stdlib source
// importer's type-checking of fmt/time/etc. dominates fixture load time,
// and the results are position-independent.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixture(t *testing.T, name string) *Package {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	dir := filepath.Join("testdata", "src", name)
	p, err := loader.LoadDir(dir, "smthill/internal/lint/testdata/src/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return p
}

// wantFindings checks rule output against expected (line, substring)
// pairs, in order.
func wantFindings(t *testing.T, got []Finding, want []struct {
	line int
	sub  string
}) {
	t.Helper()
	if len(got) != len(want) {
		for _, f := range got {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Pos.Line != w.line {
			t.Errorf("finding %d at line %d, want %d (%s)", i, got[i].Pos.Line, w.line, got[i].Msg)
		}
		if !strings.Contains(got[i].Msg, w.sub) {
			t.Errorf("finding %d msg %q does not mention %q", i, got[i].Msg, w.sub)
		}
	}
}

func TestNondetRuleFires(t *testing.T) {
	p := fixture(t, "nondetbad")
	got := (&NondetRule{}).Check(p)
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{6, "math/rand"},   // flagged at the import; covers every rand.* call
		{13, "time.Now"},   // wall clock
		{13, "os.Getpid"},  // process id
		{18, "time.Since"}, // wall clock
	})
}

func TestNondetRuleSilentOnFixedForm(t *testing.T) {
	p := fixture(t, "nondetok")
	if got := (&NondetRule{}).Check(p); len(got) != 0 {
		t.Fatalf("unexpected findings on fixed form: %v", got)
	}
}

func TestNondetRuleRespectsPackageSelection(t *testing.T) {
	p := fixture(t, "nondetbad")
	r := &NondetRule{SimPackages: []string{"internal/pipeline"}}
	if got := r.Check(p); len(got) != 0 {
		t.Fatalf("rule fired outside its package selection: %v", got)
	}
	r = &NondetRule{Allow: []string{"testdata/src/nondetbad"}}
	if got := r.Check(p); len(got) != 0 {
		t.Fatalf("rule fired inside its allowlist: %v", got)
	}
}

func TestMapOrderRuleFires(t *testing.T) {
	p := fixture(t, "maporderbad")
	got := NewMapOrderRule().Check(p)
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{11, "fmt.Printf"},
		{19, `slice "keys"`},
		{27, "channel"},
	})
}

func TestMapOrderRuleSilentOnFixedForm(t *testing.T) {
	p := fixture(t, "maporderok")
	if got := NewMapOrderRule().Check(p); len(got) != 0 {
		t.Fatalf("unexpected findings on fixed form: %v", got)
	}
}

func recorderRule(path string) *RecorderGuardRule {
	return &RecorderGuardRule{
		Types: []string{"smthill/internal/lint/testdata/src/" + path + ".Recorder"},
	}
}

func TestRecorderGuardRuleFires(t *testing.T) {
	p := fixture(t, "recorderbad")
	got := recorderRule("recorderbad").Check(p)
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{19, "m.rec.Cycles"},
		{25, "rec.Threads"},
		{31, "other.rec.Cycles"},
	})
}

func TestRecorderGuardRuleSilentOnFixedForm(t *testing.T) {
	p := fixture(t, "recorderok")
	if got := recorderRule("recorderok").Check(p); len(got) != 0 {
		t.Fatalf("unexpected findings on fixed form: %v", got)
	}
}

// TestRecorderGuardRuleSeesThroughAnd: a nil check anywhere in an &&
// chain guards what the chain's truth governs, but not across ||.
func TestRecorderGuardRuleSeesThroughAnd(t *testing.T) {
	p := fixture(t, "recorderand")
	got := recorderRule("recorderand").Check(p)
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{31, "m.rec.Cycles"},
	})
}

func TestFloatCompareRuleFires(t *testing.T) {
	p := fixture(t, "floatbad")
	got := NewFloatCompareRule().Check(p)
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{6, "=="},
		{11, "!="},
	})
}

func TestFloatCompareRuleSilentOnFixedForm(t *testing.T) {
	p := fixture(t, "floatok")
	if got := NewFloatCompareRule().Check(p); len(got) != 0 {
		t.Fatalf("unexpected findings on fixed form: %v", got)
	}
}

func TestFloatCompareRuleWithoutZeroExemption(t *testing.T) {
	p := fixture(t, "floatok")
	r := &FloatCompareRule{AllowZero: false}
	got := r.Check(p)
	if len(got) != 1 || got[0].Pos.Line != 14 {
		t.Fatalf("want exactly the zero-sentinel finding at line 14, got %v", got)
	}
}

func hotAllocRule(path string) *HotAllocRule {
	return &HotAllocRule{
		Packages: []string{"testdata/src/" + path},
		Roots: []FuncRef{
			{Recv: "Machine", Name: "Cycle"},
			{Recv: "Batch", Name: "CycleAll"},
		},
		Cold: []string{"record"},
	}
}

func TestHotAllocRuleFires(t *testing.T) {
	p := fixture(t, "hotallocbad")
	got := hotAllocRule("hotallocbad").Check(p)
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{18, "append"}, // direct callee of Cycle
		{34, "append"}, // reachable only from the batch root
		{24, "append"}, // two levels deep via helper -> grow
		{24, "make"},   // nested inside the append call
	})
	// The chain rendering names the discovery path from each root.
	if !strings.Contains(got[1].Msg, "Batch.CycleAll -> Batch.gather") {
		t.Errorf("finding msg %q does not show the batch-root chain", got[1].Msg)
	}
	if !strings.Contains(got[2].Msg, "Machine.Cycle -> Machine.helper -> Machine.grow") {
		t.Errorf("finding msg %q does not show the call chain", got[2].Msg)
	}
}

func TestHotAllocRuleSilentOnFixedForm(t *testing.T) {
	p := fixture(t, "hotallocok")
	// RunAudit (not Check) so the ignore directive in the fixture applies;
	// the cold telemetry path and the unreachable reset are exempt by
	// design.
	if got := RunAudit([]Rule{hotAllocRule("hotallocok")}, []*Package{p}); len(got) != 0 {
		t.Fatalf("unexpected findings on fixed form: %v", got)
	}
}

func TestHotAllocRuleRespectsPackageSelection(t *testing.T) {
	p := fixture(t, "hotallocbad")
	r := hotAllocRule("hotallocbad")
	r.Packages = []string{"internal/pipeline"}
	if got := r.Check(p); len(got) != 0 {
		t.Fatalf("rule fired outside its package selection: %v", got)
	}
}

func TestIgnoreDirectives(t *testing.T) {
	p := fixture(t, "ignored")
	got := RunAudit([]Rule{&NondetRule{}}, []*Package{p})
	wantFindings(t, got, []struct {
		line int
		sub  string
	}{
		{20, "suppresses no finding"}, // Stamp3's directive names the wrong rule,
		{21, "time.Now"},              // so it suppresses nothing
	})
}

func TestRunSortsFindings(t *testing.T) {
	pa := fixture(t, "floatbad")
	pb := fixture(t, "nondetbad")
	got := RunAudit([]Rule{&NondetRule{}, NewFloatCompareRule()}, []*Package{pb, pa})
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("findings out of order: %s before %s", got[i-1], got[i])
		}
	}
	if len(got) == 0 {
		t.Fatal("expected findings from both packages")
	}
}

func TestMatchPackage(t *testing.T) {
	cases := []struct {
		path string
		pats []string
		want bool
	}{
		{"smthill/internal/pipeline", nil, true},
		{"smthill/internal/pipeline", []string{"internal/pipeline"}, true},
		{"smthill/internal/pipeline", []string{"smthill/internal/pipeline"}, true},
		{"smthill/internal/pipeline/sub", []string{"internal/pipeline"}, true},
		{"smthill/internal/policy", []string{"internal/pipeline"}, false},
		{"smthill/internal/rng", []string{"internal/rng"}, true},
	}
	for _, c := range cases {
		if got := matchPackage(c.path, c.pats); got != c.want {
			t.Errorf("matchPackage(%q, %v) = %v, want %v", c.path, c.pats, got, c.want)
		}
	}
}

// TestRepoIsClean is the in-process form of "make lint": both call
// Drive, so the full module must produce zero findings under the default
// rules, including the unusedignore audit (no //smtlint:ignore may
// suppress nothing).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drive(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range got {
		t.Errorf("%s", f)
	}
}
