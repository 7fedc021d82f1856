// Command smtsim runs one multiprogrammed workload on the simulated SMT
// processor under a chosen resource distribution technique and prints
// per-thread and aggregate statistics.
//
// Usage:
//
//	smtsim -workload art-mcf -tech HILL-WIPC -epochs 50
//	smtsim -workload art-mcf -json               # machine-readable result
//	smtsim -workload art-mcf -trace trace.jsonl -cpuprofile cpu.out
//	smtsim -workload art-mcf -check          # per-cycle invariant checks
//	smtsim -workload app1.profile,app2.profile   # external models
//	smtsim -cores 2 -workload art,mcf,fma3d,gcc -pairing ipc-pred
//	                                         # multi-core with allocation
//
// Techniques: ICOUNT, STALL, FLUSH, DCRA, STATIC, HILL-IPC, HILL-WIPC,
// HILL-HWIPC, HILL-PHASE, STEEP-WIPC (batched steepest-ascent: before
// each epoch, the anchor and every ±Delta move are probed for
// -epoch-size cycles, the epoch the winner then governs, on a
// pipeline.MachineBatch).
//
// The run goes through internal/simjob, the same spec/result schema the
// smtserved daemon serves, so -json output is byte-compatible with the
// daemon's job results. Ctrl-C / SIGTERM cancels at the next epoch
// boundary and exits 130.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"smthill/internal/core"
	"smthill/internal/simjob"
	"smthill/internal/telemetry"
	"smthill/internal/trace"
	"smthill/internal/workload"
)

func main() {
	var (
		wlName     = flag.String("workload", "art-mcf", "workload name from Table 3 (e.g. art-mcf), comma-separated app names, or comma-separated .profile files")
		tech       = flag.String("tech", "HILL-WIPC", "distribution technique")
		epochs     = flag.Int("epochs", 50, "epochs to simulate")
		epochSize  = flag.Int("epoch-size", core.DefaultEpochSize, "epoch length in cycles")
		warmup     = flag.Int("warmup", 2, "warmup epochs before measurement (at least 1)")
		delta      = flag.Int("delta", core.DefaultDelta, "hill-climbing step in rename registers")
		seed       = flag.Uint64("seed", 0, "stream-seed perturbation (0 = canonical seeds)")
		cores      = flag.Int("cores", 0, "run a multi-core system of this many 2-context SMT cores behind a shared L3 (the workload must supply 2*cores applications; 0/1 = single core)")
		pairing    = flag.String("pairing", "", "thread-to-core allocation policy for -cores: random, ipc-pred, or stall-pred (default ipc-pred)")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON (the simjob/daemon schema) instead of text")
		traceFile  = flag.String("trace", "", "write telemetry events to this file (.csv for CSV, else JSONL)")
		check      = flag.Bool("check", false, "run per-cycle invariant checks (resource conservation, program-order commit); panics on the first violation")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// os.Exit skips defers (profile writers, sink flushes), so main
	// delegates to run.
	os.Exit(run(*wlName, *tech, *epochs, *epochSize, *warmup, *delta, *seed,
		*cores, *pairing,
		*jsonOut, *traceFile, *check, *pprofAddr, *cpuprofile, *memprofile))
}

func run(wlName, tech string, epochs, epochSize, warmup, delta int, seed uint64,
	cores int, pairing string,
	jsonOut bool, traceFile string, check bool,
	pprofAddr, cpuprofile, memprofile string) int {
	// A spec's warmup 0 selects the default of 2 epochs, so -warmup 0
	// would silently run 2; refuse it instead.
	if warmup < 1 {
		fmt.Fprintf(os.Stderr, "smtsim: -warmup %d: need at least 1 warmup epoch (a spec's warmup 0 means the default of 2)\n", warmup)
		return 2
	}
	// Ctrl-C / SIGTERM stops the run at the next epoch boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

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

	spec := simjob.Spec{
		Workload: wlName, Tech: tech,
		Epochs: epochs, EpochSize: epochSize, Warmup: warmup,
		Delta: delta, Seed: seed,
		Cores: cores, Pairing: pairing,
	}

	var sink telemetry.Sink
	if traceFile != "" {
		s, closer, err := telemetry.OpenSink(traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			if err := closer(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		sink = s
	}

	var res simjob.Result
	var err error
	if strings.Contains(wlName, ".profile") {
		// External models are not nameable in a Spec; resolve them here
		// and run through the same engine.
		var w workload.Workload
		w, err = profileWorkload(wlName)
		if err == nil {
			res, err = simjob.RunWorkload(ctx, w, spec, sink, check)
		}
	} else if check {
		// RunWorkload (not Run) so the invariant checks reach the
		// machine; Resolve keeps -seed semantics identical.
		var w workload.Workload
		w, err = spec.Normalize().Resolve()
		if err == nil {
			res, err = simjob.RunWorkload(ctx, w, spec, sink, check)
		}
	} else {
		res, err = simjob.Run(ctx, spec, sink)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, context.Canceled) {
			return 130 // interrupted: the conventional 128+SIGINT
		}
		return 2
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	render(os.Stdout, res)
	return 0
}

// render prints the historical human-readable report from the shared
// result schema.
func render(w io.Writer, res simjob.Result) {
	fmt.Fprintf(w, "workload %s under %s: %d epochs of %d cycles\n",
		res.Workload, res.Tech, res.Epochs, res.EpochSize)
	if res.Cores > 1 {
		fmt.Fprintf(w, "  %d cores, pairing %s: migrations %d | L3 miss %.2f%% | per-core IPC%s\n",
			res.Cores, res.Pairing, res.Migrations, 100*res.L3MissRate, renderCoreIPC(res.CoreIPC))
	}
	for _, t := range res.Threads {
		fmt.Fprintf(w, "  thread %d (%-8s): IPC %6.3f | committed %9d | flushed %8d | mispredicts %7d\n",
			t.Thread, t.App, t.IPC, t.Committed, t.Flushed, t.Mispredicts)
	}
	fmt.Fprintf(w, "  total IPC %.3f | mispredict %.2f%% | DL1 miss %.2f%% | L2 miss %.2f%% | flushes %d\n",
		res.TotalIPC, 100*res.MispredictRate, 100*res.DL1MissRate, 100*res.L2MissRate, res.Flushes)
	if res.FinalShares != nil {
		fmt.Fprintf(w, "  final partitioning (rename regs): %v\n", res.FinalShares)
	}
}

// renderCoreIPC formats per-core IPCs for the multicore header line.
func renderCoreIPC(ipc []float64) string {
	var b strings.Builder
	for _, v := range ipc {
		fmt.Fprintf(&b, " %.3f", v)
	}
	return b.String()
}

// profileWorkload loads comma-separated .profile files as a custom
// workload (see trace.ParseProfile for the format).
func profileWorkload(name string) (workload.Workload, error) {
	var profiles []trace.Profile
	for _, path := range strings.Split(name, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return workload.Workload{}, err
		}
		p, err := trace.ParseProfile(string(data))
		if err != nil {
			return workload.Workload{}, fmt.Errorf("%s: %v", path, err)
		}
		profiles = append(profiles, p)
	}
	return workload.Custom(profiles)
}
