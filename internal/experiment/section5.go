package experiment

import (
	"context"
	"io"
	"strconv"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// Section5Row compares plain hill-climbing with the phase-detection and
// -prediction extension on one workload.
type Section5Row struct {
	Workload string
	Group    string
	// Behaviour is the predicted time-varying behaviour label (the
	// extension mainly helps TL workloads).
	Behaviour string
	Hill      float64
	PhaseHill float64
	// Phases is the number of distinct phases detected.
	Phases int
	// Jumps counts anchor restorations from the phase table.
	Jumps int
}

// phaseHillResult is the cacheable outcome of one PhaseHill run.
type phaseHillResult struct {
	IPC    []float64
	Phases int
	Jumps  int
}

// phaseHillKey identifies one Section 5 run; like plain hill-climbing it
// samples SingleIPC on-line, so only the epoch geometry matters.
func phaseHillKey(cfg Config, w workload.Workload) string {
	return sweep.KeyFrom(keyPrefix("phasehill"), map[string]string{
		"wl": w.Name(),
		"es": strconv.Itoa(cfg.EpochSize),
		"ep": strconv.Itoa(cfg.Epochs),
		"wu": strconv.Itoa(warmupEpochs(cfg)),
	})
}

// phaseHillJob measures the Section 5 technique on w.
func phaseHillJob(cfg Config, w workload.Workload) sweep.Job[phaseHillResult] {
	return sweep.Job[phaseHillResult]{
		Key: phaseHillKey(cfg, w),
		Run: func(context.Context) (phaseHillResult, error) {
			m := w.NewMachine(nil)
			m.CycleN(cfg.WarmupEpochs * cfg.EpochSize)
			ph := core.NewPhaseHill(w.Threads(), m.Resources().Sizes()[renameKind], metrics.WeightedIPC)
			r := core.NewRunner(m, ph, metrics.WeightedIPC)
			r.EpochSize = cfg.EpochSize
			r.Run(cfg.Epochs)
			return phaseHillResult{IPC: r.TotalsSince(0), Phases: ph.Phases(), Jumps: ph.Jumps}, nil
		},
	}
}

// Section5 measures HILL-WIPC with and without phase support. The plain
// hill runs share their job keys with Figure 9, so under one engine they
// are computed (or cached) once across the whole suite.
func Section5(cfg Config, loads []workload.Workload) []Section5Row {
	solos := soloBatch(cfg, loads)
	hills := techIPCs(cfg, loads, []string{"HILL-WIPC"})
	phaseJobs := make([]sweep.Job[phaseHillResult], 0, len(loads))
	for _, w := range loads {
		phaseJobs = append(phaseJobs, phaseHillJob(cfg, w))
	}
	phases := mustRun(phaseJobs)

	rows := make([]Section5Row, 0, len(loads))
	for _, w := range loads {
		singles := singlesFor(solos, w)
		ph := phases[phaseHillKey(cfg, w)]
		rows = append(rows, Section5Row{
			Workload:  w.Name(),
			Group:     w.Group,
			Behaviour: PredictBehaviour(DeriveLabel(w)),
			Hill:      metrics.WeightedIPC.Eval(hills[w.Name()]["HILL-WIPC"], singles),
			PhaseHill: metrics.WeightedIPC.Eval(ph.IPC, singles),
			Phases:    ph.Phases,
			Jumps:     ph.Jumps,
		})
	}
	return rows
}

// Section5Boost returns the mean relative gain of the phase extension,
// overall and restricted to TL-class workloads (the paper reports 0.4%
// overall and 2.1% on TL workloads).
func Section5Boost(rows []Section5Row) (overall, tlOnly float64) {
	sum, n := 0.0, 0
	tlSum, tlN := 0.0, 0
	for _, r := range rows {
		if r.Hill <= 0 {
			continue
		}
		g := r.PhaseHill/r.Hill - 1
		sum += g
		n++
		if r.Behaviour == "TL" || r.Behaviour == "TLJL" {
			tlSum += g
			tlN++
		}
	}
	if n > 0 {
		overall = sum / float64(n)
	}
	if tlN > 0 {
		tlOnly = tlSum / float64(tlN)
	}
	return overall, tlOnly
}

// WriteSection5 renders the comparison.
func WriteSection5(w io.Writer, rows []Section5Row) {
	t := table{w}
	t.row("%-7s %-28s %-9s %10s %12s %7s %6s", "Group", "Workload", "Behaviour", "HILL", "HILL+PHASE", "Phases", "Jumps")
	for _, r := range rows {
		t.row("%-7s %-28s %-9s %10.3f %12.3f %7d %6d",
			r.Group, r.Workload, r.Behaviour, r.Hill, r.PhaseHill, r.Phases, r.Jumps)
	}
	overall, tl := Section5Boost(rows)
	t.row("%s", "")
	t.row("phase extension boost: %+.2f%% overall, %+.2f%% on TL workloads",
		100*overall, 100*tl)
}
