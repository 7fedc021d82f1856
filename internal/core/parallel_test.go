package core_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/multicore"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/telemetry"
	"smthill/internal/workload"
)

// onSlots runs f with a budget of n CPU slots (GOMAXPROCS n, which may
// exceed the host's CPUs) and returns f's result as JSON.
func onSlots(t *testing.T, n int, f func() any) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	out, err := json.Marshal(f())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func machine(t *testing.T, spec string) *pipeline.Machine {
	t.Helper()
	w, err := workload.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w.NewMachine(nil)
}

// goroutineID parses the running goroutine's ID from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// spyPolicy is ICOUNT that records which goroutines cycled its member.
type spyPolicy struct {
	pipeline.NilPolicy
	mu  *sync.Mutex
	ids map[string]bool
}

func (p spyPolicy) Cycle(*pipeline.Machine) {
	p.mu.Lock()
	p.ids[goroutineID()] = true
	p.mu.Unlock()
}

func (p spyPolicy) Clone() pipeline.Policy { return p }

// TestProbeParallelMatchesSerial runs every kind of probe on a 1-slot
// and a 4-slot CPU budget and requires byte-identical results: with 4
// slots and no sweep holding any, each wave spreads its members over up
// to 4 goroutines, so under -race this also checks that members share
// only read-only state. The probe subtest shows the 4-slot waves really
// run on several goroutines.
func TestProbeParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		run  func() any
	}{
		{"offline", func() any {
			o := core.NewOffLine(machine(t, "art-gzip"), metrics.WeightedIPC, []float64{1, 1})
			o.EpochSize = 2048
			o.Stride = 12
			return o.Run(3)
		}},
		{"offline-traced", func() any {
			var sink telemetry.MemorySink
			o := core.NewOffLine(machine(t, "art-gzip"), metrics.WeightedIPC, []float64{1, 1})
			o.EpochSize = 2048
			o.Stride = 12
			o.Trace = &sink
			o.Run(3)
			return []any{o.Results(), sink.Events()}
		}},
		{"randhill", func() any {
			r := core.NewRandHill(machine(t, "art-mcf-swim-twolf"), metrics.WeightedIPC, []float64{1, 1, 1, 1})
			r.EpochSize = 2048
			r.MaxIters = 14
			return r.Run(3)
		}},
		{"steepest", func() any {
			m := machine(t, "art-gzip")
			st := core.NewSteepest(m.Threads(), m.Resources().Sizes()[resource.IntRename], metrics.WeightedIPC)
			st.M = m
			st.ProbeCycles = 2048
			r := core.NewRunner(m, st, metrics.WeightedIPC)
			r.EpochSize = 2048
			st.Singles = r.Singles
			return []any{r.Run(5), m.Stats()}
		}},
		{"steepest-multicore", func() any {
			w, err := workload.Parse("art,mcf,fma3d,gcc")
			if err != nil {
				t.Fatal(err)
			}
			sys := multicore.New(multicore.DefaultConfig(2), w.Streams(), nil)
			if sys.L3() == nil {
				t.Fatal("system has no shared L3")
			}
			renameRegs := resource.DefaultSizes()[resource.IntRename]
			runners := make([]*core.Runner, 2)
			for c := range runners {
				st := core.NewSteepest(multicore.ContextsPerCore, renameRegs, metrics.WeightedIPC)
				st.M = sys.Core(c)
				st.ProbeCycles = 1024
				runners[c] = core.NewRunner(sys.Core(c), st, metrics.WeightedIPC)
				runners[c].EpochSize = 2048
				runners[c].SamplePeriod = 0
				st.Singles = runners[c].Singles
			}
			d := &multicore.Driver{Sys: sys, Runners: runners, EpochSize: 2048, RenameRegs: renameRegs}
			d.Run(6)
			committed := make([]uint64, sys.Threads())
			for g := range committed {
				committed[g] = sys.Committed(g)
			}
			return []any{committed, sys.L3().CoreStats(0), sys.L3().CoreStats(1)}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial, parallel := onSlots(t, 1, c.run), onSlots(t, 4, c.run)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("4-slot result differs from 1-slot:\n  1: %.300s\n  4: %.300s", serial, parallel)
			}
		})
	}

	t.Run("probe", func(t *testing.T) {
		for _, slots := range []int{1, 4} {
			spy := spyPolicy{mu: &sync.Mutex{}, ids: map[string]bool{}}
			onSlots(t, slots, func() any {
				p := core.Probe{K: 4}
				p.Run(machine(t, "art-gzip"), 4, 64,
					func(i int, m *pipeline.Machine) { m.SetPolicy(spy) },
					func(int, *pipeline.Machine) {})
				return nil
			})
			if len(spy.ids) != slots {
				t.Errorf("%d-slot wave of 4 ran on %d goroutines, want %d", slots, len(spy.ids), slots)
			}
		}
	})
}
