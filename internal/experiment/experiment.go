// Package experiment regenerates every table and figure of the paper's
// evaluation from the rebuilt system. Each experiment returns structured
// rows; cmd/experiments formats them as text, and bench_test.go exposes
// each one as a benchmark.
//
// The paper simulates 100M–1B instructions per run; the Config defaults
// are scaled down so the whole suite regenerates in minutes. Shapes —
// which technique wins, by roughly what factor, and where the crossovers
// fall — are the reproduction target, not absolute IPCs (see DESIGN.md).
package experiment

import (
	"fmt"
	"io"

	"smthill/internal/core"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/telemetry"
	"smthill/internal/workload"
)

// renameKind is the partition axis (integer rename registers).
const renameKind = resource.IntRename

// Config scales the experiments.
type Config struct {
	// EpochSize is the epoch length in cycles (the paper's 64K).
	EpochSize int
	// Epochs is the number of measured epochs per workload/technique.
	Epochs int
	// WarmupEpochs run before measurement to fill caches and predictors.
	WarmupEpochs int
	// OffLineStride is the exhaustive-search step in rename registers
	// (the paper's 2; larger is proportionally cheaper).
	OffLineStride int
	// RandHillIters bounds RAND-HILL's per-epoch trial budget (the
	// paper's 128).
	RandHillIters int
	// SoloCycles sizes the stand-alone reference runs for SingleIPC.
	SoloCycles int
}

// Default returns the scaled-down configuration used by the benchmarks.
func Default() Config {
	return Config{
		EpochSize:     core.DefaultEpochSize,
		Epochs:        40,
		WarmupEpochs:  2,
		OffLineStride: 16,
		RandHillIters: 24,
		SoloCycles:    8 * core.DefaultEpochSize,
	}
}

// Paper returns the full-scale configuration matching the paper's
// methodology (expensive: hours of simulation).
func Paper() Config {
	c := Default()
	c.Epochs = 240 // ~1B instructions at the paper's IPCs
	c.OffLineStride = 2
	c.RandHillIters = 128
	c.SoloCycles = 64 * core.DefaultEpochSize
	return c
}

// soloIPC measures an application's stand-alone IPC on a fresh machine
// with full resources.
func soloIPC(app workload.App, cycles int) float64 {
	w := workload.Workload{Apps: []string{app.Name}}
	m := w.NewMachine(nil)
	m.CycleN(cycles)
	return float64(m.Committed(0)) / float64(cycles)
}

// Singles returns the stand-alone reference IPC of each member of w. The
// runs go through the sweep engine, so repeated requests for the same
// application (across workloads, experiments, or cached invocations) are
// computed once.
func Singles(cfg Config, w workload.Workload) []float64 {
	return singlesFor(soloBatch(cfg, []workload.Workload{w}), w)
}

// tele receives run-level telemetry (epoch events, hill moves) from the
// experiment run helpers; nil means tracing is off. cmd/experiments
// installs a sink via SetTelemetry for its -trace flag. Sinks must be
// concurrency-safe: jobs run in parallel on the sweep pool. Experiment
// stdout stays byte-identical with or without a sink — telemetry is a
// side stream, never an input.
var tele telemetry.Sink

// SetTelemetry installs the trace sink used by the experiment run
// helpers (nil disables tracing). Like SetEngine, it is not safe to swap
// concurrently with a running experiment.
func SetTelemetry(s telemetry.Sink) { tele = s }

// baselineNames returns the baseline per-cycle policies of the comparison.
func baselineNames() []string { return []string{"ICOUNT", "FLUSH", "DCRA"} }

// commitVector snapshots per-thread committed counts.
func commitVector(m *pipeline.Machine) []uint64 {
	out := make([]uint64, m.Threads())
	for th := range out {
		out[th] = m.Committed(th)
	}
	return out
}

// ipcSince converts committed-count deltas into per-thread IPCs.
func ipcSince(m *pipeline.Machine, base []uint64, cycles int) []float64 {
	out := make([]float64, m.Threads())
	for th := range out {
		out[th] = float64(m.Committed(th)-base[th]) / float64(cycles)
	}
	return out
}

// Fprintf-style row writer shared by the CLI.
type table struct {
	w io.Writer
}

func (t table) row(format string, args ...any) {
	fmt.Fprintf(t.w, format+"\n", args...)
}
