package experiment

import (
	"context"
	"io"
	"sort"
	"strconv"

	"smthill/internal/resource"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// Table2Row characterises one application model the way the paper's
// Table 2 and Section 4.4.2 do.
type Table2Row struct {
	App string
	// Type is "ILP" or "MEM"; FP marks floating-point benchmarks.
	Type string
	FP   bool
	// Freq is the requirement-variation label ("High"/"Low"/"No").
	Freq string
	// SoloIPC is the stand-alone IPC with full resources.
	SoloIPC float64
	// Rsc is the measured resource requirement: the smallest number of
	// integer rename registers achieving 95% of SoloIPC (Section 4.4.2).
	Rsc int
	// MispredictRate and DL1/L2 miss rates characterise the model.
	MispredictRate float64
	DL1Miss        float64
	L2Miss         float64
}

// rscSweep measures an app's solo IPC as its rename-register allocation
// shrinks, returning the smallest allocation achieving frac of the
// full-resource IPC.
func rscSweep(app workload.App, cycles int, frac float64) (full float64, rsc int) {
	run := func(regs int) float64 {
		w := workload.Workload{Apps: []string{app.Name}}
		m := w.NewMachine(nil)
		m.Resources().SetShares(resource.Shares{regs})
		m.CycleN(cycles)
		return float64(m.Committed(0)) / float64(cycles)
	}
	total := resource.DefaultSizes()[resource.IntRename]
	full = run(total)
	rsc = total
	for regs := total - 16; regs >= 16; regs -= 16 {
		if run(regs) >= frac*full {
			rsc = regs
		} else {
			break
		}
	}
	return full, rsc
}

// table2Key identifies one application's characterisation run; both the
// solo machine and the requirement sweep are sized by SoloCycles.
func table2Key(cfg Config, app string) string {
	return sweep.KeyFrom(keyPrefix("table2"), map[string]string{
		"app": app,
		"sc":  strconv.Itoa(cfg.SoloCycles),
	})
}

// table2Job characterises one application: a stand-alone run for the
// miss/mispredict rates plus the shrinking-allocation requirement sweep.
func table2Job(cfg Config, name string) sweep.Job[Table2Row] {
	return sweep.Job[Table2Row]{
		Key: table2Key(cfg, name),
		Run: func(context.Context) (Table2Row, error) {
			app := workload.Get(name)
			w := workload.Workload{Apps: []string{name}}
			m := w.NewMachine(nil)
			m.CycleN(cfg.SoloCycles)
			full, rsc := rscSweep(app, cfg.SoloCycles/2, 0.95)
			return Table2Row{
				App:            name,
				Type:           app.Type.String(),
				FP:             app.FP,
				Freq:           app.Profile.Kind.String(),
				SoloIPC:        full,
				Rsc:            rsc,
				MispredictRate: m.MispredictRate(),
				DL1Miss:        m.Mem().DL1.Stats.MissRate(),
				L2Miss:         m.Mem().UL2.Stats.MissRate(),
			}, nil
		},
	}
}

// Table2 measures every catalog application through the sweep engine.
// Rows are sorted by name.
func Table2(cfg Config) []Table2Row {
	names := workload.Names()
	jobs := make([]sweep.Job[Table2Row], 0, len(names))
	for _, name := range names {
		jobs = append(jobs, table2Job(cfg, name))
	}
	runs := mustRun(jobs)
	rows := make([]Table2Row, 0, len(names))
	for _, name := range names {
		rows = append(rows, runs[table2Key(cfg, name)])
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].App < rows[j].App })
	return rows
}

// WriteTable2 renders the rows in the paper's column layout.
func WriteTable2(w io.Writer, rows []Table2Row) {
	t := table{w}
	t.row("%-10s %-4s %-5s %-5s %8s %6s %9s %8s %8s",
		"App", "Type", "Int", "Freq", "SoloIPC", "Rsc", "Mispred", "DL1miss", "L2miss")
	for _, r := range rows {
		intFp := "Int"
		if r.FP {
			intFp = "FP"
		}
		t.row("%-10s %-4s %-5s %-5s %8.3f %6d %8.1f%% %7.1f%% %7.1f%%",
			r.App, r.Type, intFp, r.Freq, r.SoloIPC, r.Rsc,
			100*r.MispredictRate, 100*r.DL1Miss, 100*r.L2Miss)
	}
}

// Table3Row summarises one workload as in the paper's Table 3.
type Table3Row struct {
	Workload string
	Group    string
	RscSum   int
}

// Table3 lists all 42 workloads with their summed resource requirements.
func Table3() []Table3Row {
	all := workload.All()
	rows := make([]Table3Row, len(all))
	for i, w := range all {
		rows[i] = Table3Row{Workload: w.Name(), Group: w.Group, RscSum: w.RscSum()}
	}
	return rows
}

// WriteTable3 renders the workload table.
func WriteTable3(w io.Writer, rows []Table3Row) {
	t := table{w}
	t.row("%-6s %-36s %6s", "Group", "Workload", "Rsc")
	for _, r := range rows {
		t.row("%-6s %-36s %6d", r.Group, r.Workload, r.RscSum)
	}
}
