package experiment

import (
	"io"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/policy"
	"smthill/internal/resource"
	"smthill/internal/stats"
	"smthill/internal/workload"
)

// QualitativeRow quantifies one of the Section 3.3.2 observations about
// why performance-feedback learning beats indicator-driven policies, on a
// purpose-built two-thread scenario.
type QualitativeRow struct {
	// Scenario names the observation.
	Scenario string
	// Apps are the two threads (the subject thread first).
	Apps [2]string
	// BestShare is the subject thread's mean rename-register share at
	// the per-epoch exhaustive optimum.
	BestShare float64
	// DCRAShare is the subject thread's mean share under DCRA's
	// per-cycle caps (sampled once per epoch).
	DCRAShare float64
	// BestScore and DCRAScore are the weighted-IPC scores of the
	// exhaustive optimum and of DCRA over the same epochs.
	BestScore float64
	DCRAScore float64
}

// Qualitative reproduces the paper's two qualitative findings:
//
//  1. Cache-miss clustering: for a thread with clustered independent
//     misses, the learned optimum gives it a large partition to expose
//     the memory-level parallelism; indicator-driven policies contain it.
//  2. Compute-intensive low-ILP threads: a thread that rarely misses but
//     has deep dependence chains and poor branch prediction is treated as
//     "fast" by DCRA (and favoured by ICOUNT), yet the learned optimum
//     contracts its partition because extra resources do not help it.
func Qualitative(cfg Config) []QualitativeRow {
	return []QualitativeRow{
		qualitativeScenario(cfg, "cache-miss clustering", "swim", "eon"),
		qualitativeScenario(cfg, "compute-intensive low-ILP", "perlbmk", "swim"),
	}
}

// qualitativeScenario measures subject+partner: the mean per-epoch
// exhaustive-best share of the subject, and DCRA's share of the subject.
func qualitativeScenario(cfg Config, name, subject, partner string) QualitativeRow {
	w := workload.Workload{Apps: []string{subject, partner}, Group: "QUAL"}
	singles := Singles(cfg, w)

	// Exhaustive per-epoch best (OFF-LINE).
	m := w.NewMachine(nil)
	m.CycleN(cfg.WarmupEpochs * cfg.EpochSize)
	o := core.NewOffLine(m, metrics.WeightedIPC, singles)
	o.EpochSize = cfg.EpochSize
	o.Stride = cfg.OffLineStride
	var bestShares, bestScores []float64
	for e := 0; e < cfg.Epochs; e++ {
		res := o.RunEpoch()
		bestShares = append(bestShares, float64(res.Shares[0]))
		bestScores = append(bestScores, res.Score)
	}

	// DCRA on the same workload, sampling the subject's cap per epoch.
	md := w.NewMachine(policy.ByName("DCRA"))
	md.CycleN(cfg.WarmupEpochs * cfg.EpochSize)
	base := commitVector(md)
	var dcraShares, dcraScores []float64
	for e := 0; e < cfg.Epochs; e++ {
		md.CycleN(cfg.EpochSize)
		dcraShares = append(dcraShares, float64(md.Resources().Limit(0, resource.IntRename)))
		ipc := ipcSince(md, base, cfg.EpochSize)
		base = commitVector(md)
		dcraScores = append(dcraScores, metrics.WeightedIPC.Eval(ipc, singles))
	}

	return QualitativeRow{
		Scenario:  name,
		Apps:      [2]string{subject, partner},
		BestShare: stats.Mean(bestShares),
		DCRAShare: stats.Mean(dcraShares),
		BestScore: stats.Mean(bestScores),
		DCRAScore: stats.Mean(dcraScores),
	}
}

// WriteQualitative renders the comparison.
func WriteQualitative(w io.Writer, rows []QualitativeRow) {
	t := table{w}
	t.row("%-28s %-18s %10s %10s %10s %10s", "Scenario", "subject+partner",
		"bestShare", "dcraShare", "bestWIPC", "dcraWIPC")
	for _, r := range rows {
		t.row("%-28s %-18s %10.1f %10.1f %10.3f %10.3f",
			r.Scenario, r.Apps[0]+"+"+r.Apps[1], r.BestShare, r.DCRAShare, r.BestScore, r.DCRAScore)
	}
}
