package sweep

import (
	"os"
	"testing"

	"smthill/internal/lint/leakcheck"
)

// TestMain gates the suite on goroutine leaks: the engine's worker pool
// and fan-out goroutines must stop once Run returns or its context ends.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
