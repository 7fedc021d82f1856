// Package smthill's top-level benchmarks regenerate every table and
// figure of the paper at a scaled-down size (see DESIGN.md): each
// Benchmark corresponds to one table/figure and reports the paper's
// headline numbers as custom benchmark metrics. cmd/experiments runs the
// same experiments at any scale and prints the full row sets.
//
// The per-workload benchmarks use representative subsets of Table 3 (a
// slice of every group) so the whole suite completes in minutes; pass
// -timeout accordingly when running everything.
package smthill

import (
	"runtime"
	"testing"

	"smthill/internal/core"
	"smthill/internal/experiment"
	"smthill/internal/isa"
	"smthill/internal/metrics"
	"smthill/internal/multicore"
	"smthill/internal/pipeline"
	"smthill/internal/telemetry"
	"smthill/internal/trace"
	"smthill/internal/workload"
)

// benchConfig is the scaled-down experiment size used by the benchmarks.
func benchConfig() experiment.Config {
	cfg := experiment.Default()
	cfg.Epochs = 24
	cfg.OffLineStride = 24
	cfg.RandHillIters = 12
	cfg.SoloCycles = 6 * cfg.EpochSize
	if testing.Short() {
		cfg.Epochs = 6
		cfg.OffLineStride = 64
		cfg.RandHillIters = 6
		cfg.SoloCycles = 2 * cfg.EpochSize
	}
	return cfg
}

// benchLoads2 returns three 2-thread workloads per Table 3 group.
func benchLoads2() []workload.Workload {
	names := []string{
		"gzip-bzip2", "fma3d-mesa", "apsi-eon", // ILP2
		"art-gzip", "mcf-eon", "lucas-crafty", // MIX2
		"art-mcf", "swim-twolf", "mcf-twolf", // MEM2
	}
	if testing.Short() {
		names = names[:3]
	}
	out := make([]workload.Workload, len(names))
	for i, n := range names {
		out[i] = workload.ByName(n)
	}
	return out
}

// benchLoads4 returns two 4-thread workloads per group.
func benchLoads4() []workload.Workload {
	names := []string{
		"apsi-eon-gzip-vortex", "fma3d-mesa-perlbmk-bzip2", // ILP4
		"art-mcf-fma3d-gcc", "mcf-mesa-lucas-gzip", // MIX4
		"art-mcf-swim-twolf", "equake-parser-mcf-lucas", // MEM4
	}
	if testing.Short() {
		names = names[:2]
	}
	out := make([]workload.Workload, len(names))
	for i, n := range names {
		out[i] = workload.ByName(n)
	}
	return out
}

func benchLoadsAll() []workload.Workload {
	return append(benchLoads2(), benchLoads4()...)
}

// BenchmarkTable2 regenerates the application characterisation (Table 2).
func BenchmarkTable2(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows := experiment.Table2(cfg)
		mem := 0
		for _, r := range rows {
			if r.Type == "MEM" {
				mem++
			}
		}
		b.ReportMetric(float64(len(rows)), "apps")
		b.ReportMetric(float64(mem), "mem_apps")
	}
}

// BenchmarkFigure2 regenerates the IPC-vs-distribution surface of the
// motivating example (Figure 2).
func BenchmarkFigure2(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		points := experiment.Figure2(cfg, 32)
		peak := experiment.Peak(points)
		worst := peak
		for _, p := range points {
			if p.IPC < worst.IPC {
				worst = p
			}
		}
		b.ReportMetric(peak.IPC, "peak_ipc")
		b.ReportMetric(peak.IPC/worst.IPC, "peak_over_worst")
	}
}

// BenchmarkFigure4 regenerates the limit study (Figure 4): OFF-LINE vs
// ICOUNT/FLUSH/DCRA under weighted IPC.
func BenchmarkFigure4(b *testing.B) {
	cfg := benchConfig()
	loads := benchLoads2()
	for i := 0; i < b.N; i++ {
		rows := experiment.Figure4(cfg, loads)
		b.ReportMetric(100*experiment.Gains(rows, "OFF-LINE", "ICOUNT"), "gain_vs_icount_%")
		b.ReportMetric(100*experiment.Gains(rows, "OFF-LINE", "FLUSH"), "gain_vs_flush_%")
		b.ReportMetric(100*experiment.Gains(rows, "OFF-LINE", "DCRA"), "gain_vs_dcra_%")
	}
}

// BenchmarkFigure5 regenerates the synchronized time-varying comparison
// on art-mcf (Figure 5).
func BenchmarkFigure5(b *testing.B) {
	cfg := benchConfig()
	w := workload.ByName("art-mcf")
	for i := 0; i < b.N; i++ {
		rows := experiment.Figure5(cfg, w)
		wins := experiment.WinFractions(rows)
		b.ReportMetric(100*wins["ICOUNT"], "win_vs_icount_%")
		b.ReportMetric(100*wins["DCRA"], "win_vs_dcra_%")
	}
}

// BenchmarkFigure7 regenerates the hill-width analysis (Figures 6 and 7).
func BenchmarkFigure7(b *testing.B) {
	cfg := benchConfig()
	loads := benchLoads2()
	for i := 0; i < b.N; i++ {
		rows := experiment.HillWidths(cfg, loads)
		// Mean width at the 0.99 and 0.90 levels across workloads.
		var w99, w90 float64
		for _, r := range rows {
			w99 += r.Width[0]
			w90 += r.Width[len(r.Width)-1]
		}
		b.ReportMetric(w99/float64(len(rows)), "mean_width_99_regs")
		b.ReportMetric(w90/float64(len(rows)), "mean_width_90_regs")
	}
}

// BenchmarkFigure9 regenerates the main on-line comparison (Figure 9):
// HILL-WIPC vs ICOUNT/FLUSH/DCRA.
func BenchmarkFigure9(b *testing.B) {
	cfg := benchConfig()
	cfg.Epochs = 40 // hill-climbing needs rounds to converge
	loads := benchLoadsAll()
	for i := 0; i < b.N; i++ {
		rows := experiment.Figure9(cfg, loads)
		b.ReportMetric(100*experiment.Gains(rows, "HILL", "ICOUNT"), "gain_vs_icount_%")
		b.ReportMetric(100*experiment.Gains(rows, "HILL", "FLUSH"), "gain_vs_flush_%")
		b.ReportMetric(100*experiment.Gains(rows, "HILL", "DCRA"), "gain_vs_dcra_%")
	}
}

// BenchmarkFigure10 regenerates the metric matrix (Figure 10).
func BenchmarkFigure10(b *testing.B) {
	cfg := benchConfig()
	loads := benchLoads2()
	for i := 0; i < b.N; i++ {
		cells := experiment.Figure10(cfg, loads)
		b.ReportMetric(100*experiment.MatchedMetricAdvantage(cells), "matched_metric_adv_%")
	}
}

// BenchmarkFigure11 regenerates the comparison against the idealised
// learners (Figure 11).
func BenchmarkFigure11(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		top := experiment.Figure11TwoThread(cfg, benchLoads2())
		bottom := experiment.Figure11FourThread(cfg, benchLoads4())
		b.ReportMetric(100*experiment.FractionOfIdeal(top, "OFF-LINE"), "hill_of_offline_%")
		b.ReportMetric(100*experiment.FractionOfIdeal(bottom, "RAND-HILL"), "hill_of_randhill_%")
	}
}

// BenchmarkFigure12 regenerates a time-varying behaviour trace
// (Figure 12; mcf-eon is the paper's TL example).
func BenchmarkFigure12(b *testing.B) {
	cfg := benchConfig()
	w := workload.ByName("mcf-eon")
	for i := 0; i < b.N; i++ {
		rows := experiment.Figure12(cfg, w)
		dist, frac := experiment.TrackingError(rows, cfg.OffLineStride)
		b.ReportMetric(dist, "mean_regs_from_peak")
		b.ReportMetric(100*frac, "of_epoch_ideal_%")
	}
}

// BenchmarkSection5 regenerates the phase detection/prediction extension
// comparison (Section 5).
func BenchmarkSection5(b *testing.B) {
	cfg := benchConfig()
	loads := benchLoads2()
	for i := 0; i < b.N; i++ {
		rows := experiment.Section5(cfg, loads)
		overall, tl := experiment.Section5Boost(rows)
		b.ReportMetric(100*overall, "boost_overall_%")
		b.ReportMetric(100*tl, "boost_tl_%")
	}
}

// ---------------------------------------------------------------------
// Ablations of the design choices called out in DESIGN.md.

// hillTotalIPC runs HILL-WIPC on w and returns the summed IPC.
func hillTotalIPC(w workload.Workload, epochSize, epochs, delta, overhead, samplePeriod int) float64 {
	m := w.NewMachine(nil)
	m.CycleN(2 * epochSize)
	hill := core.NewHillClimber(w.Threads(), 256, metrics.WeightedIPC)
	hill.Delta = delta
	hill.Overhead = overhead
	r := core.NewRunner(m, hill, metrics.WeightedIPC)
	r.EpochSize = epochSize
	r.SamplePeriod = samplePeriod
	r.Run(epochs)
	total := 0.0
	for _, v := range r.TotalsSince(0) {
		total += v
	}
	return total
}

// BenchmarkAblationEpochSize sweeps the epoch size (Section 3.1.1 found
// 64K cycles consistently good).
func BenchmarkAblationEpochSize(b *testing.B) {
	w := workload.ByName("art-mcf")
	for _, size := range []int{16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024} {
		b.Run(sizeName(size), func(b *testing.B) {
			// Hold total simulated cycles constant across epoch sizes.
			epochs := (40 * 64 * 1024) / size
			for i := 0; i < b.N; i++ {
				b.ReportMetric(hillTotalIPC(w, size, epochs, core.DefaultDelta, core.HillOverheadCycles, core.DefaultSamplePeriod), "sum_ipc")
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "1M"
	default:
		return map[int]string{16384: "16K", 32768: "32K", 65536: "64K", 131072: "128K", 262144: "256K"}[n]
	}
}

// BenchmarkAblationDelta sweeps the hill-climbing step size (Figure 8
// uses Delta = 4).
func BenchmarkAblationDelta(b *testing.B) {
	w := workload.ByName("art-mcf")
	for _, delta := range []int{1, 2, 4, 8, 16} {
		b.Run(map[int]string{1: "d1", 2: "d2", 4: "d4", 8: "d8", 16: "d16"}[delta], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(hillTotalIPC(w, 64*1024, 40, delta, core.HillOverheadCycles, core.DefaultSamplePeriod), "sum_ipc")
			}
		})
	}
}

// BenchmarkAblationStallCost sweeps the software cost charged per
// hill-climbing invocation (Section 4.2 charges 200 cycles).
func BenchmarkAblationStallCost(b *testing.B) {
	w := workload.ByName("art-mcf")
	for _, cost := range []int{0, 200, 2000} {
		b.Run(map[int]string{0: "c0", 200: "c200", 2000: "c2000"}[cost], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(hillTotalIPC(w, 64*1024, 40, core.DefaultDelta, cost, core.DefaultSamplePeriod), "sum_ipc")
			}
		})
	}
}

// BenchmarkAblationSamplePeriod sweeps the SingleIPC sampling period
// (Section 4.2 samples every 40 epochs).
func BenchmarkAblationSamplePeriod(b *testing.B) {
	w := workload.ByName("art-mcf")
	for _, period := range []int{10, 40, 0} {
		b.Run(map[int]string{10: "p10", 40: "p40", 0: "off"}[period], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(hillTotalIPC(w, 64*1024, 40, core.DefaultDelta, core.HillOverheadCycles, period), "sum_ipc")
			}
		})
	}
}

// BenchmarkAblationProportional compares the paper's proportional
// IQ/ROB partitioning against partitioning the rename registers alone
// (Section 3.1.2's simplification).
func BenchmarkAblationProportional(b *testing.B) {
	w := workload.ByName("art-mcf")
	run := func(renameOnly bool) float64 {
		m := w.NewMachine(nil)
		m.CycleN(2 * 64 * 1024)
		hill := core.NewHillClimber(w.Threads(), 256, metrics.WeightedIPC)
		r := core.NewRunner(m, hill, metrics.WeightedIPC)
		r.RenameOnly = renameOnly
		r.Run(40)
		total := 0.0
		for _, v := range r.TotalsSince(0) {
			total += v
		}
		return total
	}
	for _, mode := range []string{"proportional", "rename-only"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(run(mode == "rename-only"), "sum_ipc")
			}
		})
	}
}

// benchCycleLoop is the shared cycle-loop benchmark body: a 2-thread
// art-gzip machine, optionally with a telemetry recorder attached,
// advanced b.N cycles. It reports allocations (the steady-state loop
// must stay at 0 allocs/op) and cycles/sec — the stable unit tracked by
// the BENCH_PR<N>.json trajectory (`make bench-json`).
func benchCycleLoop(b *testing.B, record bool) {
	w := workload.ByName("art-gzip")
	m := w.NewMachine(nil)
	if record {
		m.SetRecorder(telemetry.NewRecorder(m.Threads()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	m.CycleN(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkSimulatorSpeed measures raw simulation throughput
// (one op = one simulated cycle) for a 2-thread machine with telemetry
// and tracing off. It is the one tracked single-core cycle loop: a
// regression in the recorder or obs nil-guards, or in the bare loop a
// multi-core build must leave untouched, shows up here.
func BenchmarkSimulatorSpeed(b *testing.B) {
	benchCycleLoop(b, false)
}

// BenchmarkMachineTelemetryOn measures the same loop with a recorder
// attached — the full price of stall attribution and occupancy
// histograms when tracing is requested.
func BenchmarkMachineTelemetryOn(b *testing.B) {
	benchCycleLoop(b, true)
}

// BenchmarkMultiCoreCyclesPerSec measures lock-step multi-core
// throughput (one op = one simulated cycle across all cores): a 2-core
// System — four threads behind the shared L3 — advanced b.N cycles.
// Tracked by the BENCH_PR<N>.json trajectory alongside
// BenchmarkSimulatorSpeed so L3/arbitration costs can't silently regress.
func BenchmarkMultiCoreCyclesPerSec(b *testing.B) {
	w, err := workload.Parse("art,mcf,fma3d,gcc")
	if err != nil {
		b.Fatal(err)
	}
	sys := multicore.New(multicore.DefaultConfig(2), w.Streams(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	sys.CycleN(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
}

// batchBenchRound is the trial-loop shape both batch benchmarks time: a
// refill of every member from the source checkpoint followed by one
// epoch of lock-step execution — exactly what one OFF-LINE/steepest
// wave costs per candidate set.
const batchBenchK = 8
const batchBenchEpoch = 4096

// BenchmarkMachineBatchCyclesPerSec measures batched lock-step
// throughput: a K=8 MachineBatch repeatedly refilled from an art-gzip
// checkpoint and advanced an epoch per round. One op is one aggregate
// member-cycle, so ns/op compares directly with BenchmarkSimulatorSpeed
// and the cycles/sec metric is the aggregate across members
// (benchjson's BatchCyclesPerSec). The steady-state round — pooled
// refill, shared-window fill and trim, lock-step chunks — must not
// allocate.
func BenchmarkMachineBatchCyclesPerSec(b *testing.B) {
	w := workload.ByName("art-gzip")
	src := w.NewMachine(nil)
	src.CycleN(20_000)
	batch := pipeline.BatchFrom(src, batchBenchK)
	round := func() {
		batch.Refill(nil)
		batch.CycleAllN(batchBenchEpoch)
	}
	round() // reach every buffer's high-water mark before timing
	round()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		round()
		done += batchBenchK * batchBenchEpoch
	}
	b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkMachineBatchSequentialBaseline times the identical work
// without the batch: eight independent machines, each CloneInto-refilled
// from the same checkpoint and run the same epoch one after another —
// the pooled pattern the trial loops used before batching. The ratio of
// BenchmarkMachineBatchCyclesPerSec's aggregate cycles/sec to this
// benchmark's is the batching speedup on this host.
func BenchmarkMachineBatchSequentialBaseline(b *testing.B) {
	w := workload.ByName("art-gzip")
	src := w.NewMachine(nil)
	src.CycleN(20_000)
	members := make([]*pipeline.Machine, batchBenchK)
	round := func() {
		for i := range members {
			members[i] = src.CloneInto(members[i])
			members[i].CycleN(batchBenchEpoch)
		}
	}
	round()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		round()
		done += batchBenchK * batchBenchEpoch
	}
	b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkMachineBatchParallel is the same round shape with each
// lock-step chunk spread over one goroutine per host CPU. Skipped on a
// single-CPU host, where lock-step parallelism has nothing to run on —
// the serial benchmark above is the tracked metric precisely because it
// is host-shape independent.
func BenchmarkMachineBatchParallel(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("single-CPU host: parallel batch mode has no extra cores to use")
	}
	w := workload.ByName("art-gzip")
	src := w.NewMachine(nil)
	src.CycleN(20_000)
	batch := pipeline.BatchFrom(src, batchBenchK)
	round := func() {
		batch.Refill(nil)
		batch.CycleFirstN(batchBenchK, batchBenchEpoch, runtime.GOMAXPROCS(0))
	}
	round()
	round()
	b.ResetTimer()
	done := 0
	for done < b.N {
		round()
		done += batchBenchK * batchBenchEpoch
	}
	b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkCheckpoint measures the cost of the checkpoint primitive as
// the probe-heavy learners use it: the first checkpoint allocates via
// Clone, every subsequent one reuses that machine's memory via
// CloneInto — the pooled pattern OFF-LINE and RAND-HILL run per trial.
func BenchmarkCheckpoint(b *testing.B) {
	w := workload.ByName("art-mcf")
	m := w.NewMachine(nil)
	m.CycleN(20_000)
	b.ReportAllocs()
	b.ResetTimer()
	var dst *pipeline.Machine
	for i := 0; i < b.N; i++ {
		dst = m.CloneInto(dst)
	}
	_ = dst
}

// BenchmarkTraceGen measures synthetic instruction generation throughput.
func BenchmarkTraceGen(b *testing.B) {
	g := trace.New(workload.Get("gcc").Profile)
	var in isa.Inst
	for i := 0; i < b.N; i++ {
		g.Next(&in)
	}
}
