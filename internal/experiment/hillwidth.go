package experiment

import (
	"fmt"
	"io"

	"smthill/internal/core"
	"smthill/internal/workload"
)

// HillWidthLevels are the performance levels N at which the paper
// measures hill-width (Figures 6 and 7).
var HillWidthLevels = []float64{0.99, 0.98, 0.97, 0.95, 0.90}

// HillWidthRow holds one workload's hill-width_N values, averaged over
// epochs, in integer rename registers.
type HillWidthRow struct {
	Workload string
	Group    string
	// Width[i] corresponds to HillWidthLevels[i].
	Width []float64
}

// widthAt computes the width of the hill containing the maximal peak at
// level N×max, in units of trials, then scales by the enumeration stride
// to express it in registers.
func widthAt(scores []float64, level float64, stride int) int {
	best, bestIdx := scores[0], 0
	for i, s := range scores {
		if s > best {
			best, bestIdx = s, i
		}
	}
	cut := level * best
	lo := bestIdx
	for lo > 0 && scores[lo-1] >= cut {
		lo--
	}
	hi := bestIdx
	for hi < len(scores)-1 && scores[hi+1] >= cut {
		hi++
	}
	return (hi - lo + 1) * stride
}

// meanWidths reduces OFF-LINE's per-epoch trial curves to the mean
// hill width at each of HillWidthLevels.
func meanWidths(epochs []core.OffLineEpoch, stride int) []float64 {
	sums := make([]float64, len(HillWidthLevels))
	for _, e := range epochs {
		scores := make([]float64, len(e.Trials))
		for i, tr := range e.Trials {
			scores[i] = tr.Score
		}
		for li, level := range HillWidthLevels {
			sums[li] += float64(widthAt(scores, level, stride))
		}
	}
	widths := make([]float64, len(HillWidthLevels))
	for i := range widths {
		widths[i] = sums[i] / float64(len(epochs))
	}
	return widths
}

// HillWidths measures the sharpness of OFF-LINE's per-epoch performance
// hills on each 2-thread workload (Figure 7). The widths come with the
// OFF-LINE job itself (Figure 6 is one of its trial curves), so after
// Figure 4 on the same engine this simulates nothing.
func HillWidths(cfg Config, loads []workload.Workload) []HillWidthRow {
	runs := offLineBatch(cfg, loads, soloBatch(cfg, loads))
	rows := make([]HillWidthRow, 0, len(loads))
	for _, w := range loads {
		rows = append(rows, HillWidthRow{
			Workload: w.Name(), Group: w.Group, Width: runs[offLineKey(cfg, w)].Widths,
		})
	}
	return rows
}

// WriteHillWidths renders the Figure 7 table.
func WriteHillWidths(w io.Writer, rows []HillWidthRow) {
	t := table{w}
	header := fmt.Sprintf("%-8s%-28s", "Group", "Workload")
	for _, l := range HillWidthLevels {
		header += fmt.Sprintf(" %7s", fmt.Sprintf("w%.2f", l))
	}
	t.row("%s", header)
	for _, r := range rows {
		line := fmt.Sprintf("%-8s%-28s", r.Group, r.Workload)
		for _, v := range r.Width {
			line += fmt.Sprintf(" %7.1f", v)
		}
		t.row("%s", line)
	}
}
