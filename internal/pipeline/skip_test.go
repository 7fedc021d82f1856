package pipeline_test

import (
	"reflect"
	"testing"

	"smthill/internal/pipeline"
	"smthill/internal/policy"
	"smthill/internal/telemetry"
	"smthill/internal/workload"
)

// TestQuietSkipMatchesPerCycle pins CycleN's quiet-cycle skipping to the
// per-cycle reference: a machine with invariant checks on steps every
// cycle, so after every call the fast machine's counters, Basic Block
// Vectors, telemetry and policy state must equal the checked twin's.
// The policy state catches a skip that swallows the call's final cycle:
// DCRA restamps its last-miss cycle on every cycle a miss is pending.
// Every policy runs on a memory-bound, a high-ILP and a 4-thread mixed
// workload, traced and untraced, with call lengths that end skips at
// odd offsets, global stalls (the climber's software cost) and
// fetch-disabled threads (SingleIPC sampling) between calls.
func TestQuietSkipMatchesPerCycle(t *testing.T) {
	policies := []string{"ICOUNT", "STALL", "FLUSH", "DCRA", "STALL-FLUSH", "DG", "PDG"}
	lengths := []int{1, 37, 4096}
	const rounds = 8
	for _, wl := range []string{"art-mcf", "gzip-bzip2", "art-mcf-fma3d-gcc"} {
		w := workload.ByName(wl)
		for _, name := range policies {
			for _, traced := range []bool{false, true} {
				fast := w.NewMachine(policy.ByName(name))
				ref := w.NewMachine(policy.ByName(name))
				ref.SetInvariantChecks(true)
				if traced {
					fast.SetRecorder(telemetry.NewRecorder(w.Threads()))
					ref.SetRecorder(telemetry.NewRecorder(w.Threads()))
				}
				for call := 0; call < rounds*len(lengths); call++ {
					n := lengths[call%len(lengths)]
					for _, m := range []*pipeline.Machine{fast, ref} {
						if call%5 == 2 {
							m.Stall(200)
						}
						m.SetFetchEnabled(0, call%4 != 1)
					}
					fast.CycleN(n)
					ref.CycleN(n)
					if err := sameRun(fast, ref); err != "" {
						t.Fatalf("%s/%s traced=%v: call %d (CycleN(%d), cycle %d): %s",
							wl, name, traced, call, n, ref.Now(), err)
					}
				}
			}
		}
	}
}

// sameRun compares everything a caller can observe of two machines and
// describes the first difference ("" when none).
func sameRun(fast, ref *pipeline.Machine) string {
	if fast.Now() != ref.Now() {
		return "clock differs"
	}
	if fast.Stats() != ref.Stats() {
		return "stats differ"
	}
	if !reflect.DeepEqual(fast.PerThreadStats(), ref.PerThreadStats()) {
		return "per-thread stats differ"
	}
	for th := 0; th < fast.Threads(); th++ {
		if fast.BBV(th) != ref.BBV(th) {
			return "BBVs differ"
		}
	}
	if !reflect.DeepEqual(fast.Recorder(), ref.Recorder()) {
		return "recorder counters differ"
	}
	if !reflect.DeepEqual(fast.Policy(), ref.Policy()) {
		return "policy state differs"
	}
	return ""
}

// cycleCounter is ICOUNT that counts how many cycles actually ran its
// per-cycle hook.
type cycleCounter struct {
	pipeline.NilPolicy
	n *int
}

func (p cycleCounter) Cycle(*pipeline.Machine) { *p.n++ }

func (p cycleCounter) Clone() pipeline.Policy { return p }

// TestQuietSkipSkips shows the skipping is live: on a memory-bound
// workload most cycles are quiet, so fewer than half of them run.
func TestQuietSkipSkips(t *testing.T) {
	var ran int
	m := workload.ByName("art-mcf").NewMachine(cycleCounter{n: &ran})
	const cycles = 100_000
	m.CycleN(cycles)
	if m.Now() != cycles {
		t.Fatalf("clock at %d after CycleN(%d)", m.Now(), cycles)
	}
	if ran >= cycles/2 {
		t.Fatalf("%d of %d cycles ran the policy hook; quiet stretches are not being skipped", ran, cycles)
	}
}
