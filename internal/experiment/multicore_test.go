package experiment

import (
	"bytes"
	"testing"

	"smthill/internal/sweep"
)

func renderMcPair(cfg Config) string {
	var buf bytes.Buffer
	WriteCompare(&buf, McPair(cfg, []int{2}))
	return buf.String()
}

// TestMcPairParallelByteIdentical extends the engine-determinism
// contract to the multi-core family: the rendered mcpair comparison is
// byte-for-byte identical on one worker and on four.
func TestMcPairParallelByteIdentical(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 3

	var serial, parallel string
	withEngine(sweep.NewEngine(1), func() { serial = renderMcPair(cfg) })
	withEngine(sweep.NewEngine(4), func() { parallel = renderMcPair(cfg) })
	if serial != parallel {
		t.Fatalf("mcpair output differs between -j 1 and -j 4:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
	if serial == "" {
		t.Fatal("mcpair rendered nothing")
	}
}

// TestMulticoreWorkloadsShape: every advertised workload set has
// exactly 2 applications per core.
func TestMulticoreWorkloadsShape(t *testing.T) {
	for _, cores := range []int{2, 4} {
		loads := MulticoreWorkloads(cores)
		if len(loads) == 0 {
			t.Fatalf("%d cores: empty workload set", cores)
		}
		for _, w := range loads {
			if w.Threads() != 2*cores {
				t.Errorf("%d cores: workload %s has %d threads", cores, w.Name(), w.Threads())
			}
		}
	}
}
