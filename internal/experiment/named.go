package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/workload"
)

// names lists every runnable experiment, in "all" order.
var names = []string{
	"table1", "table2", "table3", "fig2", "fig4", "fig5", "fig7",
	"fig9", "fig10", "fig11", "fig12", "qual", "sec5", "mcpair",
}

// Names returns the runnable experiment names in "all" order (excluding
// the "all" meta-experiment itself).
func Names() []string { return append([]string(nil), names...) }

// RunOptions carries the non-scaling knobs of a named-experiment run.
type RunOptions struct {
	// Workloads optionally restricts an experiment to a comma-separated
	// workload subset (empty = the experiment's own set).
	Workloads string
	// Fig12Workload selects fig12's workload (empty = "mcf-eon").
	Fig12Workload string
	// JSONRows emits JSON lines instead of tables for fig4/fig9/fig11.
	JSONRows bool
}

// RunNamed regenerates one named experiment (or "all") into w. It is
// the single entry point behind cmd/experiments and the service
// daemon's /v1/experiments endpoint: unknown names, bad workload
// subsets, and cancelled runs come back as errors — with the valid
// vocabulary in the message — never as panics or process exits. The
// simulations inside run as keyed jobs on the engine installed with
// SetEngine, so results are shared and cached across callers.
func RunNamed(cfg Config, name string, opts RunOptions, w io.Writer) (err error) {
	// mustRun panics on a job failure (a recovered simulation panic or
	// the run context's cancellation); surface it as an error here so
	// long-lived callers outlive one bad run.
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
				return
			}
			panic(p)
		}
	}()
	if opts.Fig12Workload == "" {
		opts.Fig12Workload = "mcf-eon"
	}
	switch name {
	case "table1":
		writeTable1(cfg, w)
	case "table2":
		fmt.Fprintln(w, "== Table 2: application characterisation ==")
		WriteTable2(w, Table2(cfg))
	case "table3":
		fmt.Fprintln(w, "== Table 3: multiprogrammed workloads ==")
		WriteTable3(w, Table3())
	case "fig2":
		fmt.Fprintln(w, "== Figure 2: IPC vs resource distribution (mesa/vortex/fma3d) ==")
		WriteFigure2(w, Figure2(cfg, 16))
	case "fig4":
		loads, err := pick(opts.Workloads, workload.TwoThread())
		if err != nil {
			return err
		}
		rows := Figure4(cfg, loads)
		if opts.JSONRows {
			return writeCompareJSON(w, "fig4", rows)
		}
		fmt.Fprintln(w, "== Figure 4: OFF-LINE vs ICOUNT/FLUSH/DCRA (2-thread, weighted IPC) ==")
		WriteCompare(w, rows)
		for _, b := range []string{"ICOUNT", "FLUSH", "DCRA"} {
			fmt.Fprintf(w, "OFF-LINE gain over %s: %+.1f%%\n", b, 100*Gains(rows, "OFF-LINE", b))
		}
	case "fig5":
		fmt.Fprintln(w, "== Figure 5: synchronized time-varying performance (art-mcf) ==")
		rows := Figure5(cfg, workload.ByName("art-mcf"))
		WriteFigure5(w, rows)
		wins := WinFractions(rows)
		baselines := make([]string, 0, len(wins))
		for b := range wins {
			baselines = append(baselines, b)
		}
		sort.Strings(baselines)
		for _, b := range baselines {
			fmt.Fprintf(w, "OFF-LINE >= %s in %.1f%% of epochs\n", b, 100*wins[b])
		}
	case "fig7":
		loads, err := pick(opts.Workloads, workload.TwoThread())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figures 6/7: hill-width analysis (2-thread) ==")
		WriteHillWidths(w, HillWidths(cfg, loads))
	case "fig9":
		loads, err := pick(opts.Workloads, workload.All())
		if err != nil {
			return err
		}
		rows := Figure9(cfg, loads)
		if opts.JSONRows {
			return writeCompareJSON(w, "fig9", rows)
		}
		fmt.Fprintf(w, "== Figure 9: HILL-WIPC vs ICOUNT/FLUSH/DCRA (%d workloads) ==\n", len(loads))
		WriteCompare(w, rows)
		for _, b := range []string{"ICOUNT", "FLUSH", "DCRA"} {
			fmt.Fprintf(w, "HILL gain over %s: %+.1f%%\n", b, 100*Gains(rows, "HILL", b))
		}
	case "fig10":
		loads, err := pick(opts.Workloads, workload.All())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 10: metric matrix by workload group ==")
		cells := Figure10(cfg, loads)
		WriteFigure10(w, cells)
		fmt.Fprintf(w, "matched-metric advantage: %+.1f%%\n", 100*MatchedMetricAdvantage(cells))
	case "fig11":
		two, err := pick(opts.Workloads, workload.TwoThread())
		if err != nil {
			return err
		}
		four, err := pick(opts.Workloads, workload.FourThread())
		if err != nil {
			return err
		}
		top := Figure11TwoThread(cfg, two)
		bottom := Figure11FourThread(cfg, four)
		if opts.JSONRows {
			if err := writeFigure11JSON(w, "fig11-2t", top); err != nil {
				return err
			}
			return writeFigure11JSON(w, "fig11-4t", bottom)
		}
		fmt.Fprintln(w, "== Figure 11 (top): HILL-WIPC vs OFF-LINE, 2-thread ==")
		WriteFigure11(w, top)
		fmt.Fprintf(w, "HILL-WIPC achieves %.1f%% of OFF-LINE\n", 100*FractionOfIdeal(top, "OFF-LINE"))
		fmt.Fprintln(w, "== Figure 11 (bottom): DCRA vs HILL-WIPC vs RAND-HILL, 4-thread ==")
		WriteFigure11(w, bottom)
		fmt.Fprintf(w, "HILL-WIPC achieves %.1f%% of RAND-HILL\n", 100*FractionOfIdeal(bottom, "RAND-HILL"))
		fmt.Fprintf(w, "RAND-HILL gain over DCRA: %+.1f%%\n", 100*fig11Gain(bottom))
	case "fig12":
		if _, err := workload.Parse(opts.Fig12Workload); err != nil {
			return err
		}
		fmt.Fprintf(w, "== Figure 12: time-varying behaviour (%s) ==\n", opts.Fig12Workload)
		rows := Figure12(cfg, workload.ByName(opts.Fig12Workload))
		WriteFigure12(w, rows)
		dist, frac := TrackingError(rows, cfg.OffLineStride)
		fmt.Fprintf(w, "mean |HILL-BEST| = %.1f regs; HILL achieves %.1f%% of per-epoch ideal\n", dist, 100*frac)
	case "qual":
		fmt.Fprintln(w, "== Section 3.3.2: qualitative analysis scenarios ==")
		WriteQualitative(w, Qualitative(cfg))
	case "mcpair":
		rows := McPair(cfg, []int{2, 4})
		if opts.JSONRows {
			return writeCompareJSON(w, "mcpair", rows)
		}
		fmt.Fprintln(w, "== Multi-core pairing: allocation policies vs random (aggregate IPC) ==")
		WriteCompare(w, rows)
		for _, p := range []string{"ipc-pred", "stall-pred"} {
			fmt.Fprintf(w, "%s gain over random: %+.1f%%\n", p, 100*Gains(rows, p, "random"))
		}
	case "sec5":
		loads, err := pick(opts.Workloads, workload.All())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Section 5: phase detection and prediction ==")
		WriteSection5(w, Section5(cfg, loads))
	case "all":
		for _, n := range names {
			if err := RunNamed(cfg, n, opts, w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("unknown experiment %q; valid experiments:\n  %s",
			name, strings.Join(append(Names(), "all"), " "))
	}
	return nil
}

// pick resolves a comma-separated workload subset, or returns def when
// empty. Unknown names error with the full list of valid ones.
func pick(subset string, def []workload.Workload) ([]workload.Workload, error) {
	if subset == "" {
		return def, nil
	}
	byName := map[string]workload.Workload{}
	all := make([]string, 0, len(workload.All()))
	for _, w := range workload.All() {
		byName[w.Name()] = w
		all = append(all, w.Name())
	}
	var out []workload.Workload
	for _, n := range splitComma(subset) {
		w, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q; valid workloads:\n  %s",
				n, strings.Join(all, "\n  "))
		}
		out = append(out, w)
	}
	return out, nil
}

// splitComma splits a comma-separated list, dropping empty elements.
func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// jsonRow is the JSON-lines row format of the compare-style experiments,
// feeding bench-trajectory tooling. Derived/Predicted appear only for
// fig11 rows.
type jsonRow struct {
	Experiment string             `json:"experiment"`
	Workload   string             `json:"workload"`
	Group      string             `json:"group"`
	Scores     map[string]float64 `json:"scores"`
	Derived    string             `json:"derived,omitempty"`
	Predicted  string             `json:"predicted,omitempty"`
}

func writeCompareJSON(w io.Writer, name string, rows []CompareRow) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(jsonRow{
			Experiment: name, Workload: r.Workload, Group: r.Group, Scores: r.Scores,
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeFigure11JSON(w io.Writer, name string, rows []Figure11Row) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(jsonRow{
			Experiment: name, Workload: r.Workload, Group: r.Group, Scores: r.Scores,
			Derived: r.Derived, Predicted: r.Predicted,
		}); err != nil {
			return err
		}
	}
	return nil
}

func fig11Gain(rows []Figure11Row) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if d := r.Scores["DCRA"]; d > 0 {
			sum += r.Scores["RAND-HILL"]/d - 1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func writeTable1(cfg Config, w io.Writer) {
	c := pipeline.DefaultConfig(2)
	fmt.Fprintln(w, "== Table 1: SMT simulator settings ==")
	fmt.Fprintf(w, "Bandwidth          %d-Fetch, %d-Issue, %d-Commit\n", c.FetchWidth, c.IssueWidth, c.CommitWidth)
	fmt.Fprintf(w, "Queue size         %d-IFQ/thread, %d-Int IQ, %d-FP IQ, %d-LSQ\n",
		c.IFQSize, c.Resources[resource.IntIQ], c.Resources[resource.FpIQ], c.Resources[resource.LSQ])
	fmt.Fprintf(w, "Rename reg / ROB   %d-Int, %d-FP / %d entry\n",
		c.Resources[resource.IntRename], c.Resources[resource.FpRename], c.Resources[resource.ROB])
	fmt.Fprintf(w, "Functional units   %d-Int Add, %d-Int Mul/Div, %d-Mem Port, %d-FP Add, %d-FP Mul/Div\n",
		c.FUs.IntAlu, c.FUs.IntMul, c.FUs.MemPorts, c.FUs.FpAlu, c.FUs.FpMul)
	fmt.Fprintf(w, "Branch predictor   hybrid %d-entry gshare / %d-entry bimodal, %d meta, %dx%d BTB, %d RAS\n",
		c.Bpred.GshareEntries, c.Bpred.BimodalEntries, c.Bpred.MetaEntries, c.Bpred.BTBSets, c.Bpred.BTBWays, c.Bpred.RASEntries)
	fmt.Fprintf(w, "IL1/DL1            %dKB, %dB block, %d-way, %d-cycle\n",
		c.Mem.IL1.SizeBytes>>10, c.Mem.IL1.BlockSize, c.Mem.IL1.Ways, c.Mem.IL1.Latency)
	fmt.Fprintf(w, "UL2                %dMB, %dB block, %d-way, %d-cycle\n",
		c.Mem.UL2.SizeBytes>>20, c.Mem.UL2.BlockSize, c.Mem.UL2.Ways, c.Mem.UL2.Latency)
	fmt.Fprintf(w, "Memory             %d-cycle first chunk, %d-cycle inter-chunk\n", c.Mem.MemFirst, c.Mem.MemInter)
	fmt.Fprintf(w, "Epoch              %d cycles; mispredict penalty %d cycles\n", cfg.EpochSize, c.MispredictPenalty)
}
