package experiment

import (
	"fmt"
	"io"

	"smthill/internal/metrics"
	"smthill/internal/workload"
)

// Figure10Cell holds one workload's per-thread IPC vector under one
// technique, from which any end metric can be evaluated.
type Figure10Cell struct {
	Workload string
	Group    string
	Tech     string
	IPC      []float64
	Singles  []float64
}

// Figure10Techniques lists the techniques of Figure 10: the baselines
// plus hill-climbing driven by each feedback metric, as simjob
// technique names.
func Figure10Techniques() []string {
	return []string{"ICOUNT", "FLUSH", "DCRA", "HILL-IPC", "HILL-WIPC", "HILL-HWIPC"}
}

// Figure10 measures every technique on every workload once, recording
// per-thread IPCs so all three evaluation metrics can be applied
// (Figure 10's three panels). All runs go through the sweep engine as
// one batch.
func Figure10(cfg Config, loads []workload.Workload) []Figure10Cell {
	solos := soloBatch(cfg, loads)
	runs := techIPCs(cfg, loads, Figure10Techniques())

	var cells []Figure10Cell
	for _, w := range loads {
		singles := singlesFor(solos, w)
		for _, tech := range Figure10Techniques() {
			cells = append(cells, Figure10Cell{
				Workload: w.Name(), Group: w.Group, Tech: tech,
				IPC: runs[w.Name()][tech], Singles: singles,
			})
		}
	}
	return cells
}

// Figure10Summary evaluates the cells under the given metric and averages
// by group, returning group -> technique -> score.
func Figure10Summary(cells []Figure10Cell, metric metrics.Kind) map[string]map[string]float64 {
	rows := map[string]map[string][]float64{}
	for _, c := range cells {
		if rows[c.Group] == nil {
			rows[c.Group] = map[string][]float64{}
		}
		rows[c.Group][c.Tech] = append(rows[c.Group][c.Tech], metric.Eval(c.IPC, c.Singles))
	}
	out := map[string]map[string]float64{}
	for g, m := range rows {
		out[g] = map[string]float64{}
		for tech, vs := range m {
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			out[g][tech] = sum / float64(len(vs))
		}
	}
	return out
}

// WriteFigure10 renders the three panels.
func WriteFigure10(w io.Writer, cells []Figure10Cell) {
	t := table{w}
	techs := Figure10Techniques()
	for _, metric := range []metrics.Kind{metrics.WeightedIPC, metrics.AvgIPC, metrics.HmeanWeightedIPC} {
		t.row("-- evaluated under %s --", metric)
		summary := Figure10Summary(cells, metric)
		header := fmt.Sprintf("%-7s", "Group")
		for _, tech := range techs {
			header += fmt.Sprintf(" %11s", tech)
		}
		t.row("%s", header)
		for _, g := range workload.Groups() {
			m, ok := summary[g]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%-7s", g)
			for _, tech := range techs {
				line += fmt.Sprintf(" %11.3f", m[tech])
			}
			t.row("%s", line)
		}
	}
}

// MatchedMetricAdvantage quantifies the paper's claim that hill-climbing
// performs best under a metric when that same metric drives learning:
// for each evaluation metric it compares the matched HILL variant against
// the mean of the mismatched ones, returning the mean relative advantage.
func MatchedMetricAdvantage(cells []Figure10Cell) float64 {
	variants := map[metrics.Kind]string{
		metrics.AvgIPC:           "HILL-IPC",
		metrics.WeightedIPC:      "HILL-WIPC",
		metrics.HmeanWeightedIPC: "HILL-HWIPC",
	}
	// Gather per-workload scores.
	byKey := map[string]Figure10Cell{}
	workloads := map[string]bool{}
	for _, c := range cells {
		byKey[c.Workload+"/"+c.Tech] = c
		workloads[c.Workload] = true
	}
	sum, n := 0.0, 0
	for metric, matched := range variants {
		for wl := range workloads {
			mc, ok := byKey[wl+"/"+matched]
			if !ok {
				continue
			}
			matchedScore := metric.Eval(mc.IPC, mc.Singles)
			mismatched, k := 0.0, 0
			for other, tech := range variants {
				if other == metric {
					continue
				}
				if oc, ok := byKey[wl+"/"+tech]; ok {
					mismatched += metric.Eval(oc.IPC, oc.Singles)
					k++
				}
			}
			if k > 0 && mismatched > 0 {
				sum += matchedScore/(mismatched/float64(k)) - 1
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
