package core

import (
	"math"

	"smthill/internal/metrics"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
)

// Steepest is the batched steepest-ascent climber (ROADMAP item 3, made
// affordable by pipeline.MachineBatch). Where HillClimber dedicates one
// live epoch to each of the T trial directions — a round of T epochs per
// anchor move, during which the machine runs whatever it is testing —
// Steepest evaluates the anchor and all T ±Delta shifts simultaneously
// on a batch of speculative clones of the live machine, then partitions
// the next live epoch with the measured argmax. Every live epoch runs
// the best known move; the exploration happens off to the side on the
// shared decoded stream, where sibling trials cost ~1/K of a full
// re-simulation each.
//
// Steepest implements Distributor, so it drops into every harness a
// HillClimber fits: core.Runner, the phase extension, and the multicore
// per-core climbers (Driver.resetClimber recognises its SetAnchor).
type Steepest struct {
	// M is the live machine probes are cloned from. The Runner advances
	// it; Steepest never does. Rebind when the runner's machine changes.
	M *pipeline.Machine
	// Delta is the shift step in rename registers.
	Delta int
	// Metric scores probe trials.
	Metric metrics.Kind
	// Singles, when non-nil, supplies the stand-alone IPC estimates the
	// weighted metrics need (e.g. a Runner's Singles method); nil scores
	// probes unweighted.
	Singles func() []float64
	// Overhead is the per-invocation stall cost charged to the live
	// machine, modelling the software implementation.
	Overhead int
	// ProbeCycles is each probe's horizon in cycles. Each candidate is
	// scored on the epoch it would partition (Section 3.1.1), so set it
	// to the runner's EpochSize: a longer horizon costs proportionally
	// more simulation and scores a stretch of execution the adopted
	// partition does not govern. There is no default; Decide panics
	// while it is not positive.
	ProbeCycles int

	threads int
	total   int
	anchor  resource.Shares
	probe   Probe
	cands   []resource.Shares
	base    []uint64
}

// NewSteepest returns a steepest-ascent climber for a machine with the
// given thread count and rename-register file size, with the paper's
// step size and overhead. The initial anchor is the equal partitioning.
// Bind M (the live machine probes clone from) and ProbeCycles (the
// runner's epoch size) before the first Decide.
func NewSteepest(threads, renameRegs int, metric metrics.Kind) *Steepest {
	return &Steepest{
		Delta:    DefaultDelta,
		Metric:   metric,
		Overhead: HillOverheadCycles,
		threads:  threads,
		total:    renameRegs,
		anchor:   resource.EqualShares(threads, renameRegs),
		probe:    Probe{K: threads + 1},
	}
}

// Name implements Distributor.
func (s *Steepest) Name() string {
	switch s.Metric {
	case metrics.AvgIPC:
		return "STEEP-IPC"
	case metrics.HmeanWeightedIPC:
		return "STEEP-HWIPC"
	default:
		return "STEEP-WIPC"
	}
}

// OverheadCycles implements Distributor.
func (s *Steepest) OverheadCycles() int { return s.Overhead }

// Anchor returns the current best-known partitioning.
func (s *Steepest) Anchor() resource.Shares { return s.anchor.Clone() }

// SetAnchor moves the anchor — the phase extension restoring a learned
// partition, or the multicore driver resetting a migrated core's
// climber to the equal split.
func (s *Steepest) SetAnchor(shares resource.Shares) { s.anchor = shares.Clone() }

// Decide implements Distributor: probe the anchor and every ±Delta
// shift for ProbeCycles on batched clones of the live machine, adopt
// the argmax as the new anchor, and partition the next epoch with it.
// Ties keep the anchor (probe 0), so a flat neighbourhood does not
// wander.
func (s *Steepest) Decide(prev *EpochResult) resource.Shares {
	if s.M == nil {
		panic("core: Steepest.Decide with no machine bound; set M to the runner's machine")
	}
	probe := s.ProbeCycles
	if probe <= 0 {
		panic("core: Steepest.Decide with no probe horizon; set ProbeCycles to the runner's epoch size")
	}
	s.cands = append(s.cands[:0], s.anchor)
	for d := 0; d < s.threads; d++ {
		s.cands = append(s.cands, s.anchor.Shift(d, s.Delta))
	}

	if s.base == nil {
		s.base = make([]uint64, s.threads)
	}
	for th := range s.base {
		s.base[th] = s.M.Committed(th)
	}
	var singles []float64
	if s.Singles != nil {
		singles = s.Singles()
	}
	best, bestScore := 0, math.Inf(-1)
	s.probe.Run(s.M, len(s.cands), probe,
		func(j int, m *pipeline.Machine) {
			// Speculative probes must not pollute shared state: a multicore
			// member's phantom execution is cut off from the real system's L3.
			m.Mem().DetachL3()
			m.Resources().SetShares(s.cands[j])
		},
		func(j int, m *pipeline.Machine) {
			_, ipc := measureEpoch(m, s.base, probe)
			if score := s.Metric.Eval(ipc, singles); score > bestScore {
				best, bestScore = j, score
			}
		})
	s.anchor = s.cands[best]
	return s.anchor
}
