package pipeline

import (
	"os"
	"testing"

	"smthill/internal/lint/leakcheck"
)

// TestMain gates the suite on goroutine leaks: a parallel lock-step
// chunk starts goroutines that must all be joined before the chunk
// returns, a panicking member included.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
