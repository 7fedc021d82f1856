package experiment

import (
	"io"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/pipeline"
	"smthill/internal/policy"
	"smthill/internal/workload"
)

// Figure5Row is one epoch of the synchronized time-varying comparison:
// every technique executes the same epoch from the same checkpoint
// (Section 3.3's synchronization methodology).
type Figure5Row struct {
	Epoch int
	// Scores maps technique name to its weighted IPC for the epoch.
	Scores map[string]float64
}

// Figure5 reproduces the synchronized time-varying experiment (the paper
// shows art-mcf): an OFF-LINE run whose per-epoch checkpoints also seed
// ICOUNT, FLUSH, and DCRA for one epoch each.
func Figure5(cfg Config, w workload.Workload) []Figure5Row {
	singles := Singles(cfg, w)
	m := w.NewMachine(nil)
	m.CycleN(cfg.WarmupEpochs * cfg.EpochSize)
	o := core.NewOffLine(m, metrics.WeightedIPC, singles)
	o.EpochSize = cfg.EpochSize
	o.Stride = cfg.OffLineStride

	rows := make([]Figure5Row, 0, cfg.Epochs)
	pols := baselineNames()
	p := core.Probe{K: len(pols)}
	for e := 0; e < cfg.Epochs; e++ {
		scores := map[string]float64{}
		// Baselines run the epoch from OFF-LINE's checkpoint.
		base := commitVector(o.M)
		p.Run(o.M, len(pols), cfg.EpochSize,
			func(i int, trial *pipeline.Machine) {
				trial.SetPolicy(policy.ByName(pols[i]))
				trial.Resources().ClearPartitions()
			},
			func(i int, trial *pipeline.Machine) {
				ipc := ipcSince(trial, base, cfg.EpochSize)
				scores[pols[i]] = metrics.WeightedIPC.Eval(ipc, singles)
			})
		res := o.RunEpoch()
		scores["OFF-LINE"] = res.Score
		rows = append(rows, Figure5Row{Epoch: e, Scores: scores})
	}
	return rows
}

// WriteFigure5 renders the per-epoch series.
func WriteFigure5(w io.Writer, rows []Figure5Row) {
	t := table{w}
	techs := []string{"ICOUNT", "FLUSH", "DCRA", "OFF-LINE"}
	t.row("%5s %10s %10s %10s %10s", "Epoch", techs[0], techs[1], techs[2], techs[3])
	for _, r := range rows {
		t.row("%5d %10.3f %10.3f %10.3f %10.3f", r.Epoch,
			r.Scores[techs[0]], r.Scores[techs[1]], r.Scores[techs[2]], r.Scores[techs[3]])
	}
}

// WinFractions returns, for each baseline, the fraction of epochs in
// which OFF-LINE scored at least as high (the paper reports OFF-LINE
// wins 100% of epochs vs ICOUNT/FLUSH and 97.2% vs DCRA).
func WinFractions(rows []Figure5Row) map[string]float64 {
	wins := map[string]int{}
	for _, r := range rows {
		off := r.Scores["OFF-LINE"]
		for _, b := range baselineNames() {
			if off >= r.Scores[b] {
				wins[b]++
			}
		}
	}
	out := map[string]float64{}
	for _, b := range baselineNames() {
		out[b] = float64(wins[b]) / float64(len(rows))
	}
	return out
}
