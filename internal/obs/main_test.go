package obs

import (
	"os"
	"testing"

	"smthill/internal/lint/leakcheck"
)

// TestMain gates the suite on goroutine leaks. obs starts no goroutine
// of its own; the gate keeps it that way, so any tracer or registry
// code that starts one must stop it with its owner.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
