package experiment

import (
	"io"

	"smthill/internal/core"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/workload"
)

// Figure2Point is one sample of the IPC surface of Figure 2: the
// machine's IPC during one interval under a specific 3-way resource
// distribution.
type Figure2Point struct {
	// Shares holds the rename-register distribution (thread order
	// matches Figure2's workload: mesa, vortex, fma3d).
	Shares resource.Shares
	// IPC is the aggregate IPC of the interval.
	IPC float64
}

// Figure2 sweeps the resource-distribution simplex for the paper's
// motivating example — mesa, vortex, and fma3d co-scheduled — measuring
// each distribution over the same interval from a common checkpoint
// (the paper uses a 32K-cycle interval). The returned surface is
// hill-shaped with a single clear peak.
func Figure2(cfg Config, stride int) []Figure2Point {
	w := workload.Workload{Apps: []string{"mesa", "vortex", "fma3d"}, Group: "FIG2"}
	m := w.NewMachine(nil)
	m.CycleN(cfg.WarmupEpochs * cfg.EpochSize)

	interval := 32 * 1024
	var points []Figure2Point
	total := m.Resources().Sizes()[resource.IntRename]
	base := m.Stats().Committed
	var cands []resource.Shares
	core.EnumerateShares(3, total, stride, func(s resource.Shares) {
		cands = append(cands, s)
	})
	var p core.Probe
	p.Run(m, len(cands), interval,
		func(i int, trial *pipeline.Machine) { trial.Resources().SetShares(cands[i]) },
		func(i int, trial *pipeline.Machine) {
			ipc := float64(trial.Stats().Committed-base) / float64(interval)
			points = append(points, Figure2Point{Shares: cands[i], IPC: ipc})
		})
	return points
}

// Peak returns the best point of a Figure 2 surface.
func Peak(points []Figure2Point) Figure2Point {
	best := points[0]
	for _, p := range points {
		if p.IPC > best.IPC {
			best = p
		}
	}
	return best
}

// WriteFigure2 renders the surface as (mesa, vortex, fma3d, IPC) rows and
// marks the peak.
func WriteFigure2(w io.Writer, points []Figure2Point) {
	t := table{w}
	peak := Peak(points)
	t.row("%8s %8s %8s %8s", "mesa", "vortex", "fma3d", "IPC")
	for _, p := range points {
		mark := ""
		if p.Shares[0] == peak.Shares[0] && p.Shares[1] == peak.Shares[1] {
			mark = "  <- peak"
		}
		t.row("%8d %8d %8d %8.3f%s", p.Shares[0], p.Shares[1], p.Shares[2], p.IPC, mark)
	}
}
