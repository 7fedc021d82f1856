package core

import (
	"os"
	"testing"

	"smthill/internal/lint/leakcheck"
)

// TestMain gates the suite on goroutine leaks: a probe wave spreads its
// members over goroutines that must all be joined before the wave
// returns.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
