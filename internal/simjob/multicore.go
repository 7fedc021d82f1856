package simjob

import (
	"context"
	"fmt"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/multicore"
	"smthill/internal/pipeline"
	"smthill/internal/telemetry"
	"smthill/internal/workload"
)

// runMulticore is RunWorkload's Cores > 1 path: a lock-step
// multicore.System with a per-core runner each (the inner hill-climbing
// level) and the spec's pairing policy re-grouping threads at
// reallocation points (the outer level). s must be normalized and
// shape-valid.
func runMulticore(ctx context.Context, w workload.Workload, s Spec, sink telemetry.Sink, checks bool) (Result, error) {
	n := s.Cores * multicore.ContextsPerCore
	if w.Threads() != n {
		return Result{}, fmt.Errorf("simjob: %d-core run needs exactly %d applications, workload %q has %d",
			s.Cores, n, w.Name(), w.Threads())
	}
	pairing, err := multicore.PairingByName(s.Pairing, s.Seed)
	if err != nil {
		return Result{}, err
	}
	// Every core runs the same technique over its own 2-context
	// pipeline; the learners get an independent climber per core (the
	// inner level of the two-level search).
	pols := make([]pipeline.Policy, s.Cores)
	dists := make([]core.Distributor, s.Cores)
	var feedback metrics.Kind
	for c := range pols {
		if pols[c], dists[c], feedback, err = technique(s, multicore.ContextsPerCore); err != nil {
			return Result{}, err
		}
	}

	sys := multicore.New(multicore.DefaultConfig(s.Cores), w.Streams(), pols)
	if checks {
		for c := 0; c < s.Cores; c++ {
			sys.Core(c).SetInvariantChecks(true)
		}
	}

	label := w.Name() + "/" + s.Tech + "+" + pairing.Name()
	runners := make([]*core.Runner, s.Cores)
	for c := 0; c < s.Cores; c++ {
		r := core.NewRunner(sys.Core(c), dists[c], feedback)
		r.EpochSize = s.EpochSize
		if st, ok := dists[c].(*core.Steepest); ok {
			st.M = sys.Core(c)
			st.Singles = r.Singles
		}
		if sink != nil {
			coreLabel := fmt.Sprintf("%s#c%d", label, c)
			r.Trace = sink
			r.TraceLabel = coreLabel
			if h, ok := dists[c].(*core.HillClimber); ok {
				h.Trace = sink
				h.TraceLabel = coreLabel
			}
		}
		runners[c] = r
	}

	for i := 0; i < s.Warmup; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		sys.CycleN(s.EpochSize)
	}

	d := &multicore.Driver{
		Sys:        sys,
		Runners:    runners,
		Pairing:    pairing,
		EpochSize:  s.EpochSize,
		Trace:      sink,
		TraceLabel: label,
	}
	// Measurement baselines, taken after warmup.
	baseThread := make([]uint64, n)
	for g := 0; g < n; g++ {
		baseThread[g] = sys.Committed(g)
	}
	baseCore := make([]uint64, s.Cores)
	for c := 0; c < s.Cores; c++ {
		baseCore[c] = sys.Core(c).Stats().Committed
	}
	for i := 0; i < s.Epochs; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		d.RunEpoch()
	}
	return assembleMulticore(s, w, sys, baseThread, baseCore), nil
}

// assembleMulticore folds a finished multi-core run into the shared
// Result schema. Per-thread IPCs follow each logical thread across
// migrations (the System's accounting); CoreIPC reports what each core
// slot achieved regardless of which threads passed through it.
func assembleMulticore(s Spec, w workload.Workload, sys *multicore.System, baseThread, baseCore []uint64) Result {
	cycles := uint64(s.Epochs) * uint64(s.EpochSize)
	res := Result{
		Workload:  w.Name(),
		Tech:      s.Tech,
		Epochs:    s.Epochs,
		EpochSize: s.EpochSize,
		Cores:     s.Cores,
		Pairing:   s.Pairing,
	}
	for g := 0; g < sys.Threads(); g++ {
		ts := sys.ThreadStats(g)
		ipc := float64(sys.Committed(g)-baseThread[g]) / float64(cycles)
		res.Threads = append(res.Threads, ThreadResult{
			Thread: g, App: w.Apps[g], IPC: ipc,
			Committed: ts.Committed, Flushed: ts.Flushed, Mispredicts: ts.Mispredicts,
		})
		res.TotalIPC += ipc
	}
	var dl1, ul2 struct{ acc, miss uint64 }
	var mispredict float64
	for c := 0; c < sys.Cores(); c++ {
		m := sys.Core(c)
		res.CoreIPC = append(res.CoreIPC,
			float64(m.Stats().Committed-baseCore[c])/float64(cycles))
		res.Flushes += m.Stats().Flushes
		dl1.acc += m.Mem().DL1.Stats.Accesses
		dl1.miss += m.Mem().DL1.Stats.Misses
		ul2.acc += m.Mem().UL2.Stats.Accesses
		ul2.miss += m.Mem().UL2.Stats.Misses
		mispredict += m.MispredictRate()
	}
	if dl1.acc > 0 {
		res.DL1MissRate = float64(dl1.miss) / float64(dl1.acc)
	}
	if ul2.acc > 0 {
		res.L2MissRate = float64(ul2.miss) / float64(ul2.acc)
	}
	// MispredictRate is the unweighted mean over cores (each core has
	// its own predictor; a committed-weighted mean would need predictor
	// counters the single-core schema does not expose).
	res.MispredictRate = mispredict / float64(sys.Cores())
	if l3 := sys.L3(); l3 != nil {
		res.L3MissRate = l3.Stats.MissRate()
	}
	res.Migrations = sys.Migrations()
	return res
}
