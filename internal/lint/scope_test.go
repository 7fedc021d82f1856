package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scopeSrc pins the scoping of the statement walker under the lock rules
// and recorder-guard: the cases no bad/ok fixture pair covers. A line
// that must carry a finding ends in "// want <rule>"; every other line
// must carry none.
const scopeSrc = `package scoped

import "sync"

// Store is a shared table with an annotated guard.
type Store struct {
	mu   sync.Mutex
	jobs map[string]int // guarded by mu
}

// BlockLock takes mu inside a plain block: it is still held after.
func (s *Store) BlockLock(k string) int {
	{
		s.mu.Lock()
	}
	v := s.jobs[k]
	s.mu.Unlock()
	return v
}

// Twice re-acquires the mu it took inside a plain block.
func (s *Store) Twice() {
	{
		s.mu.Lock()
	}
	s.mu.Lock() // want lockorder
}

// Spawn's goroutine starts lock-free although the spawner holds mu; the
// spawner still holds it after the go statement.
func (s *Store) Spawn(k string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.jobs[k] = 1 // want lockguard
	}()
	s.jobs[k] = 2
}

// each runs fn before returning.
func each(fn func()) { fn() }

// Callback's argument closure inherits mu; the stored closure does not.
func (s *Store) Callback(k string) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	each(func() { s.jobs[k]++ })
	f := func() {
		s.jobs[k]-- // want lockguard
	}
	return f
}

// Deferred holds mu to the end of the function, through nested scopes.
func (s *Store) Deferred(keys []string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range keys {
		if k != "" {
			n += s.jobs[k]
		}
	}
	switch n {
	case 0:
		n = len(s.jobs)
	}
	return n + s.jobs["total"]
}

// Recorder is nil when tracing is off.
type Recorder struct{ Cycles int }

// Machine carries an optional recorder.
type Machine struct{ rec *Recorder }

// Block's early-return guard ends with the block.
func (m *Machine) Block() {
	{
		if m.rec == nil {
			return
		}
		m.rec.Cycles++
	}
	m.rec.Cycles++ // want recorder-guard
}

// Case's early-return guard ends with its case.
func (m *Machine) Case(n int) {
	switch n {
	case 0:
		if m.rec == nil {
			return
		}
		m.rec.Cycles++
	}
	m.rec.Cycles++ // want recorder-guard
}

// Busy guards the right of && in a returned expression, and only there.
func (m *Machine) Busy() bool {
	return m.rec != nil && m.rec.Cycles > 0
}

// Idle's guard does not cross ||.
func (m *Machine) Idle() bool {
	return m.rec != nil || m.rec.Cycles == 0 // want recorder-guard
}

// Closure uses a guard established outside the closure body.
func (m *Machine) Closure() func() {
	if m.rec != nil {
		return func() { m.rec.Cycles++ }
	}
	return func() {
		m.rec.Cycles-- // want recorder-guard
	}
}
`

// TestWalkerScoping runs lockguard, lockorder and recorder-guard over
// scopeSrc and requires exactly the findings its want comments name.
func TestWalkerScoping(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module tmpscope\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "scoped")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "scoped.go")
	if err := os.WriteFile(file, []byte(scopeSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	rules := []Rule{
		NewLockGuardRule(),
		NewLockOrderRule(),
		&RecorderGuardRule{Types: []string{"tmpscope/scoped.Recorder"}},
	}
	var want []wantFinding
	for i, line := range strings.Split(scopeSrc, "\n") {
		if _, rule, ok := strings.Cut(line, "// want "); ok {
			want = append(want, wantFinding{file, i + 1, rule})
		}
	}
	checkFindings(t, RunAudit(rules, pkgs), want)
}
