package experiment

import (
	"fmt"
	"io"

	"smthill/internal/metrics"
	"smthill/internal/sweep"
	"smthill/internal/trace"
	"smthill/internal/workload"
)

// Figure11Row compares hill-climbing against the idealised learner on one
// workload and carries the paper's derived characterisation labels.
type Figure11Row struct {
	Workload string
	Group    string
	Scores   map[string]float64
	// Derived is the "derived characteristics" label: SM, LG(H), LG(L),
	// or LG(LH) (Section 4.4.2).
	Derived string
	// Predicted is the behaviour predicted from Derived: SS, JL, TL, or
	// TLJL.
	Predicted string
}

// DeriveLabel computes the paper's SM/LG(H/L/LH) label for a workload
// from the per-application resource requirements and variation
// frequencies of Table 2. The threshold is 256 rename registers for
// 2-thread workloads and 440 for 4-thread ones (Section 4.4.2).
func DeriveLabel(w workload.Workload) string {
	threshold := 256
	if w.Threads() == 4 {
		threshold = 440
	}
	if w.RscSum() <= threshold {
		return "SM"
	}
	hasHigh, hasLow := false, false
	for _, name := range w.Apps {
		switch workload.Get(name).Profile.Kind {
		case trace.PhaseHigh:
			hasHigh = true
		case trace.PhaseLow:
			hasLow = true
		}
	}
	switch {
	case hasHigh && hasLow:
		return "LG(LH)"
	case hasHigh:
		return "LG(H)"
	case hasLow:
		return "LG(L)"
	default:
		return "LG"
	}
}

// PredictBehaviour maps a derived label to the expected time-varying
// behaviour class (Section 4.4.2: SM -> SS, LG(H) -> JL, LG(L) -> TL).
func PredictBehaviour(label string) string {
	switch label {
	case "SM":
		return "SS"
	case "LG(H)":
		return "JL"
	case "LG(L)":
		return "TL"
	case "LG(LH)":
		return "TLJL"
	default:
		return "TL"
	}
}

// Figure11TwoThread compares HILL-WIPC against OFF-LINE on the 2-thread
// workloads (the figure's top panel). Runs are one sweep-engine batch.
func Figure11TwoThread(cfg Config, loads []workload.Workload) []Figure11Row {
	solos := soloBatch(cfg, loads)
	runs := techIPCs(cfg, loads, []string{"HILL-WIPC"})
	offline := offLineBatch(cfg, loads, solos)

	rows := make([]Figure11Row, 0, len(loads))
	for _, w := range loads {
		singles := singlesFor(solos, w)
		label := DeriveLabel(w)
		rows = append(rows, Figure11Row{
			Workload: w.Name(), Group: w.Group,
			Scores: map[string]float64{
				"HILL-WIPC": metrics.WeightedIPC.Eval(runs[w.Name()]["HILL-WIPC"], singles),
				"OFF-LINE":  metrics.WeightedIPC.Eval(offline[offLineKey(cfg, w)].IPC, singles),
			},
			Derived:   label,
			Predicted: PredictBehaviour(label),
		})
	}
	return rows
}

// Figure11FourThread compares DCRA, HILL-WIPC, and RAND-HILL on the
// 4-thread workloads (the figure's bottom panel).
func Figure11FourThread(cfg Config, loads []workload.Workload) []Figure11Row {
	solos := soloBatch(cfg, loads)
	runs := techIPCs(cfg, loads, []string{"DCRA", "HILL-WIPC"})
	var jobs []sweep.Job[[]float64]
	for _, w := range loads {
		jobs = append(jobs, randHillJob(cfg, w, singlesFor(solos, w)))
	}
	randHills := mustRun(jobs)

	rows := make([]Figure11Row, 0, len(loads))
	for _, w := range loads {
		singles := singlesFor(solos, w)
		label := DeriveLabel(w)
		rows = append(rows, Figure11Row{
			Workload: w.Name(), Group: w.Group,
			Scores: map[string]float64{
				"DCRA":      metrics.WeightedIPC.Eval(runs[w.Name()]["DCRA"], singles),
				"HILL-WIPC": metrics.WeightedIPC.Eval(runs[w.Name()]["HILL-WIPC"], singles),
				"RAND-HILL": metrics.WeightedIPC.Eval(randHills[randHillKey(cfg, w)], singles),
			},
			Derived:   label,
			Predicted: PredictBehaviour(label),
		})
	}
	return rows
}

// WriteFigure11 renders rows with their labels.
func WriteFigure11(w io.Writer, rows []Figure11Row) {
	if len(rows) == 0 {
		return
	}
	var techs []string
	for _, cand := range []string{"DCRA", "HILL-WIPC", "OFF-LINE", "RAND-HILL"} {
		if _, ok := rows[0].Scores[cand]; ok {
			techs = append(techs, cand)
		}
	}
	t := table{w}
	header := fmt.Sprintf("%-7s %-28s %-8s %-9s", "Group", "Workload", "Derived", "Predicted")
	for _, tech := range techs {
		header += fmt.Sprintf(" %10s", tech)
	}
	t.row("%s", header)
	for _, r := range rows {
		line := fmt.Sprintf("%-7s %-28s %-8s %-9s", r.Group, r.Workload, r.Derived, r.Predicted)
		for _, tech := range techs {
			line += fmt.Sprintf(" %10.3f", r.Scores[tech])
		}
		t.row("%s", line)
	}
}

// FractionOfIdeal returns the mean ratio of hill-climbing's score to the
// idealised learner's across rows (the paper reports 96.6% of OFF-LINE
// and 94.1% of RAND-HILL).
func FractionOfIdeal(rows []Figure11Row, ideal string) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if iv, ok := r.Scores[ideal]; ok && iv > 0 {
			sum += r.Scores["HILL-WIPC"] / iv
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
