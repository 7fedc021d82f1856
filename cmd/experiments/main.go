// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] <experiment> [experiment...]
//	experiments -epochs 240 -stride 2 all
//	experiments -j 8 -cache-dir ~/.cache/smthill -progress fig9
//
// Experiments: table1 table2 table3 fig2 fig4 fig5 fig7 fig9 fig10 fig11
// fig12 qual sec5 all. Flags scale the runs; the defaults regenerate every
// experiment at laptop scale (see DESIGN.md's scaling note); -paper uses
// the paper's methodology sizes.
//
// The independent simulations behind each experiment run on the
// internal/sweep worker pool: -j bounds the parallelism, -cache-dir
// persists results across invocations, and -progress reports per-job
// completion on stderr. Output is byte-identical for any -j and cache
// state. -check enables the pipeline's per-cycle invariant checking on
// every machine the run builds (CI smokes fig9 this way; see Makefile). Ctrl-C (or SIGTERM) cancels the in-flight sweep cleanly: workers
// drain, the disk cache keeps only complete entries, and the process
// exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"smthill/internal/experiment"
	"smthill/internal/obs"
	"smthill/internal/sweep"
	"smthill/internal/telemetry"
	"smthill/internal/workload"
)

func main() {
	var (
		epochs     = flag.Int("epochs", 0, "measured epochs per run (0 = config default)")
		stride     = flag.Int("stride", 0, "exhaustive-search stride in rename registers (0 = config default)")
		paper      = flag.Bool("paper", false, "use the paper-scale configuration (slow)")
		loadsFlag  = flag.String("workloads", "", "comma-separated workload subset (default: the experiment's own set)")
		wl         = flag.String("fig12-workload", "mcf-eon", "workload for fig12")
		jobs       = flag.Int("j", 0, "max parallel simulations (0 = GOMAXPROCS); CPUs they leave idle run trial waves in parallel")
		cacheDir   = flag.String("cache-dir", "", "on-disk result cache directory (empty = no cache)")
		progress   = flag.Bool("progress", false, "report per-simulation progress on stderr")
		jsonRows   = flag.Bool("json", false, "emit JSON lines instead of tables for fig4/fig9/fig11")
		check      = flag.Bool("check", false, "enable per-cycle pipeline invariant checking on every machine (slow; panics on violation)")
		trace      = flag.String("trace", "", "write telemetry events to this file (.csv for CSV, else JSONL)")
		spansOut   = flag.String("trace-spans", "", "record a span per sweep job to this file (.csv for CSV, else JSONL)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Before any simulation starts: every machine the run builds (and
	// every trial cloned from one) checks pipeline invariants per cycle.
	workload.CheckMachines = *check

	// exit runs deferred cleanups (profile writers, sink flushes) before
	// exiting: main wraps the real work so os.Exit never skips a defer.
	os.Exit(run(flag.Args(), *epochs, *stride, *paper, *loadsFlag, *wl, *jobs,
		*cacheDir, *progress, *jsonRows, *trace, *spansOut, *pprofAddr, *cpuprofile, *memprofile))
}

func run(args []string, epochs, stride int, paper bool, loadsFlag, wl string,
	jobs int, cacheDir string, progress, jsonRows bool,
	trace, spansOut, pprofAddr, cpuprofile, memprofile string) int {
	// Ctrl-C / SIGTERM cancels the sweep context: in-flight simulations
	// finish or stop at their next epoch boundary, queued ones are
	// skipped, and only complete results were (atomically) written to the
	// disk cache.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	experiment.SetContext(ctx)

	if pprofAddr != "" {
		if err := telemetry.ServePprof(pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cpuprofile != "" {
		stopProf, err := telemetry.StartCPUProfile(cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			if err := stopProf(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if memprofile != "" {
		defer func() {
			if err := telemetry.WriteHeapProfile(memprofile); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cfg := experiment.Default()
	if paper {
		cfg = experiment.Paper()
	}
	if epochs > 0 {
		cfg.Epochs = epochs
	}
	if stride > 0 {
		cfg.OffLineStride = stride
	}

	eng := sweep.NewEngine(jobs)
	if cacheDir != "" {
		c, err := sweep.NewCache(cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		c.SetLogf(func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		})
		eng.SetCache(c)
	}
	if progress {
		eng.AddObserver(sweep.NewReporter(os.Stderr).Observe)
	}

	var meter *sweep.Meter
	var closeSink func() error
	if trace != "" {
		sink, closer, err := telemetry.OpenSink(trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		closeSink = closer
		experiment.SetTelemetry(sink)
		meter = sweep.NewMeter(sink, eng.Workers())
		eng.AddObserver(meter.Observe)
	}
	// Span recording is separate from -trace: events describe what each
	// worker did, spans describe the causal tree (one root for the whole
	// invocation, one child per executed sweep job). Experiment table
	// output on stdout is unaffected either way.
	var closeSpans func() error
	var rootSpan *obs.Span
	if spansOut != "" {
		sink, closer, err := telemetry.OpenSink(spansOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		closeSpans = closer
		tracer := obs.NewTracer(obs.TracerConfig{
			Node:     "experiments",
			SampleN:  1,
			Exporter: obs.SinkExporter(sink),
		})
		ctx, rootSpan = tracer.StartRoot(ctx, "experiments", obs.KindInternal)
		experiment.SetContext(ctx)
	}
	experiment.SetEngine(eng)

	opts := experiment.RunOptions{Workloads: loadsFlag, Fig12Workload: wl, JSONRows: jsonRows}
	code := 0
	for _, name := range args {
		if err := experiment.RunNamed(cfg, name, opts, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if errors.Is(err, context.Canceled) {
				code = 130 // interrupted: the conventional 128+SIGINT
			} else {
				code = 2
			}
			break
		}
	}

	if meter != nil {
		meter.Summarize()
	}
	if rootSpan != nil {
		if code != 0 {
			rootSpan.End(fmt.Errorf("exit %d", code))
		} else {
			rootSpan.End(nil)
		}
	}
	if closeSpans != nil {
		if err := closeSpans(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}
	if closeSink != nil {
		if err := closeSink(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}
