package core

import (
	"smthill/internal/metrics"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/telemetry"
)

// DefaultTrialBatch is how many sibling trial machines the
// checkpoint-based searchers advance together in one lock-step wave.
// Each member is a full machine checkpoint (~0.5MB), so the batch size
// trades memory against shared-decode amortization; eight keeps the
// working set modest while decode runs once per instruction instead of
// once per trial.
const DefaultTrialBatch = 8

// Probe is the one way to evaluate trials: it runs candidates for a
// fixed horizon each from a checkpoint, on a lazily built
// pipeline.MachineBatch whose members are refilled in place, so sibling
// trials share trace generation and decode. OFF-LINE, RAND-HILL,
// Steepest and the figure oracles all probe through it.
type Probe struct {
	// K is the batch size, fixed at the first Run; DefaultTrialBatch
	// when 0.
	K int
	b *pipeline.MachineBatch
}

// Run evaluates n candidates for cycles each from the checkpoint src, in
// waves of K, and leaves src untouched. setup(i, m) configures the
// member m that runs candidate i (shares, policy, recorder) before its
// wave; read(i, m) reads it afterwards, in candidate order. A member is
// refilled by the next wave, so read must copy out anything it keeps.
func (p *Probe) Run(src *pipeline.Machine, n, cycles int, setup, read func(i int, m *pipeline.Machine)) {
	if p.b == nil {
		k := p.K
		if k <= 0 {
			k = DefaultTrialBatch
		}
		p.b = pipeline.BatchFrom(src, k)
	}
	for lo := 0; lo < n; lo += p.b.K() {
		w := min(p.b.K(), n-lo)
		p.b.RefillN(src, w)
		for j := 0; j < w; j++ {
			setup(lo+j, p.b.Member(j))
		}
		p.b.CycleFirstN(w, cycles)
		for j := 0; j < w; j++ {
			read(lo+j, p.b.Member(j))
		}
	}
}

// trialBatch is what a checkpoint searcher keeps across epochs: the
// probe its candidates run on, and the machine each epoch's running
// winner is copied into.
type trialBatch struct {
	probe Probe
	held  *pipeline.Machine
}

// startEpoch prepares the evaluation of one epoch's candidates from the
// checkpoint src.
func (tb *trialBatch) startEpoch(src *pipeline.Machine, epochSize int, base []uint64,
	metric metrics.Kind, singles []float64, trace telemetry.Sink) *epochEval {
	return &epochEval{
		tb: tb, src: src, epochSize: epochSize, base: base,
		metric: metric, singles: singles, trace: trace,
	}
}

// epochEval evaluates candidate partitionings of one epoch on the
// trialBatch's probe, tracking the running winner with exactly the
// serial loops' first-strictly-greater tie-break. Candidates are always
// scored in submission order, so a batched epoch selects the identical
// winner (and emits the identical Trials list) as a one-clone-at-a-time
// loop.
type epochEval struct {
	tb        *trialBatch
	src       *pipeline.Machine
	epochSize int
	base      []uint64
	metric    metrics.Kind
	singles   []float64
	trace     telemetry.Sink

	trials    []Trial
	bestTrial Trial
	one       oneShare
}

// oneShare is scratch for eval1's single-candidate waves.
type oneShare = [1]resource.Shares

// count returns the number of trials evaluated so far this epoch (the
// searchers' iteration budget).
func (e *epochEval) count() int { return len(e.trials) }

// eval1 evaluates a single candidate (the adaptive searchers' anchor and
// restart probes) and returns its trial.
func (e *epochEval) eval1(s resource.Shares) Trial {
	e.one[0] = s
	e.evalWave(e.one[:])
	return e.trials[len(e.trials)-1]
}

// evalWave runs every candidate for one epoch and scores them in order.
// A new leader is copied into the held machine, together with its
// per-trial recorder, before the next wave refills its member. The
// returned slice holds this wave's trials.
func (e *epochEval) evalWave(cands []resource.Shares) []Trial {
	start := len(e.trials)
	e.tb.probe.Run(e.src, len(cands), e.epochSize,
		func(i int, m *pipeline.Machine) {
			if e.trace != nil {
				// Fresh per-trial recorder: the adopted winner's counters
				// are exactly this epoch's stall attribution.
				m.SetRecorder(telemetry.NewRecorder(m.Threads()))
			}
			m.Resources().SetShares(cands[i])
		},
		func(i int, m *pipeline.Machine) {
			_, ipc := measureEpoch(m, e.base, e.epochSize)
			tr := Trial{Shares: cands[i], Score: e.metric.Eval(ipc, e.singles), IPC: ipc}
			e.trials = append(e.trials, tr)
			if len(e.trials) == 1 || tr.Score > e.bestTrial.Score {
				e.tb.held = m.CloneInto(e.tb.held)
				e.tb.held.SetRecorder(m.Recorder())
				e.bestTrial = tr
			}
		})
	return e.trials[start:]
}

// adopt ends the epoch: the held copy of the winning trial is handed to
// the caller to advance along (the searcher must set it as its live
// machine), and the dethroned live machine becomes the held machine the
// next epoch's winners are copied into.
func (e *epochEval) adopt() (*pipeline.Machine, Trial, []Trial) {
	if len(e.trials) == 0 {
		panic("core: epoch evaluated no trials")
	}
	best := e.tb.held
	e.tb.held = e.src
	return best, e.bestTrial, e.trials
}
