package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTempModule lays out a small module: a (one float-compare
// finding), b (imports a, clean), c (independent, clean), and d (a
// float-compare whose ignore directive names the wrong rule, so the
// directive suppresses nothing and is itself stale).
func writeTempModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": `package a

// Eq is a deliberate float-compare violation.
func Eq(x, y float64) bool { return x == y }
`,
		"b/b.go": `package b

import "tmpmod/a"

// F leans on a.
func F() bool { return a.Eq(1, 2) }
`,
		"c/c.go": `package c

// N is clean.
func N() int { return 3 }
`,
		"d/d.go": `package d

// Cmp carries a directive naming the wrong rule.
func Cmp(x, y float64) bool {
	return x == y //smtlint:ignore nondeterminism wrong rule on purpose
}
`,
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

type wantFinding struct {
	file string
	line int
	rule string
}

func checkFindings(t *testing.T, got []Finding, want []wantFinding) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		f := got[i]
		if f.Pos.Filename != w.file || f.Pos.Line != w.line || f.Rule != w.rule {
			t.Errorf("finding %d = %s, want %s:%d %s", i, f, w.file, w.line, w.rule)
		}
	}
}

// TestDriverRootRelativeFindings checks that a Drive pass over a module
// without stale directives reports only a's float-compare, with a
// root-relative filename.
func TestDriverRootRelativeFindings(t *testing.T) {
	root := writeTempModule(t)
	if err := os.RemoveAll(filepath.Join(root, "d")); err != nil {
		t.Fatal(err)
	}
	got, err := Drive(root)
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	checkFindings(t, got, []wantFinding{
		{"a/a.go", 4, "float-compare"},
	})
}

// TestDriverAuditsStaleIgnores checks that Drive audits ignore
// directives: d's directive names the wrong rule, so d's float-compare
// still fires and the directive itself is reported as unusedignore.
func TestDriverAuditsStaleIgnores(t *testing.T) {
	got, err := Drive(writeTempModule(t))
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	checkFindings(t, got, []wantFinding{
		{"a/a.go", 4, "float-compare"},
		{"d/d.go", 5, "float-compare"},
		{"d/d.go", 5, "unusedignore"},
	})
}
