package lint

import "path/filepath"

// Drive lints the whole module rooted at root (the directory holding
// go.mod) under DefaultRules, including the unusedignore audit, and
// returns the sorted findings with filenames relative to root. It is
// the one module-wide entry point: cmd/smtlint and TestRepoIsClean both
// call it.
func Drive(root string) ([]Finding, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	findings := RunAudit(DefaultRules(), pkgs)
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil {
			findings[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	return findings, nil
}
