package experiment

import (
	"context"
	"fmt"
	"strconv"

	"smthill/internal/simjob"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// resultsVersion is folded into every job key. Bump it whenever the
// simulator or the experiment semantics change in a result-affecting
// way, so stale disk-cache entries from older builds are never reused.
// Version 2 made the OFF-LINE result an object carrying Figure 7's hill
// widths next to the IPCs.
const resultsVersion = 2

// engine executes every experiment's simulation jobs. The default runs
// parallel with no disk cache; cmd/experiments installs a configured one
// via SetEngine. All experiment output is byte-identical regardless of
// the engine's worker count or cache state (see internal/sweep's
// determinism contract): job results are pure functions of their keys,
// and row assembly happens serially in workload order.
var engine = sweep.NewEngine(0)

// SetEngine installs the sweep engine used by every experiment function.
// Call it before running experiments; it is not safe to swap engines
// concurrently with a running experiment.
func SetEngine(e *sweep.Engine) {
	if e != nil {
		engine = e
	}
}

// runCtx cancels every experiment's simulation batches. The default is
// never cancelled; cmd/experiments installs a signal-bound context via
// SetContext so Ctrl-C stops in-flight sweeps cleanly (workers drain,
// the disk cache keeps only complete, atomically written entries), and
// the service daemon installs its shutdown context.
var runCtx = context.Background()

// SetContext installs the cancellation context used by every experiment
// function (nil restores the default never-cancelled context). Like
// SetEngine, it is not safe to swap concurrently with a running
// experiment.
func SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx = ctx
}

// mustRun submits a batch and panics on failure. Job errors can only be
// recovered panics from inside a simulation (or cancellation), which in
// the pre-engine serial code would have propagated as panics too;
// RunNamed converts the panic back into an error for long-lived callers.
func mustRun[R any](jobs []sweep.Job[R]) map[string]R {
	res, err := sweep.Run(runCtx, engine, jobs)
	if err != nil {
		panic(err)
	}
	return res
}

// Job keys encode the workload, technique, and exactly the Config fields
// the run's result depends on — no more, so results shared between
// experiments (solo runs, OFF-LINE runs) hit the memo and cache across
// differing irrelevant fields; no fewer, or the cache would serve wrong
// results. Constants compiled into the simulator (sampling defaults,
// hill-width levels, ...) are covered by resultsVersion. Baseline and
// HILL runs are simjob specs instead (techSpec), keyed under simjob's
// own schema version.

// keyPrefix stamps a job family with the results version.
func keyPrefix(family string) string {
	return fmt.Sprintf("v%d|%s", resultsVersion, family)
}

// soloKey identifies a stand-alone reference run of one application.
func soloKey(app string, cycles int) string {
	return sweep.KeyFrom(keyPrefix("solo"), map[string]string{
		"app":    app,
		"cycles": strconv.Itoa(cycles),
	})
}

func soloJob(app string, cycles int) sweep.Job[float64] {
	return sweep.Job[float64]{
		Key: soloKey(app, cycles),
		Run: func(context.Context) (float64, error) {
			return soloIPC(workload.Get(app), cycles), nil
		},
	}
}

// soloBatch computes the stand-alone IPC of every distinct member
// application of loads through the engine, returning app name -> IPC.
func soloBatch(cfg Config, loads []workload.Workload) map[string]float64 {
	out, err := solosOn(runCtx, engine, cfg, loads)
	if err != nil {
		panic(err)
	}
	return out
}

// solosOn is soloBatch on an explicit engine and context.
func solosOn(ctx context.Context, eng *sweep.Engine, cfg Config, loads []workload.Workload) (map[string]float64, error) {
	var jobs []sweep.Job[float64]
	seen := map[string]bool{}
	for _, w := range loads {
		for _, app := range w.Apps {
			if !seen[app] {
				seen[app] = true
				jobs = append(jobs, soloJob(app, cfg.SoloCycles))
			}
		}
	}
	res, err := sweep.Run(ctx, eng, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(seen))
	for app := range seen {
		out[app] = res[soloKey(app, cfg.SoloCycles)]
	}
	return out, nil
}

// singlesFor assembles a workload's per-thread SingleIPC vector from a
// soloBatch result.
func singlesFor(solos map[string]float64, w workload.Workload) []float64 {
	out := make([]float64, w.Threads())
	for i, app := range w.Apps {
		out[i] = solos[app]
	}
	return out
}

// warmupEpochs is the warm-up every figure job builder keys and runs
// with. It panics below 1: simjob reads a zero Warmup as its default
// of 2 while the ideal learners would run none, so one Config would
// warm its techniques differently. ExecKeyOn refuses such keys before
// building anything.
func warmupEpochs(cfg Config) int {
	if cfg.WarmupEpochs < 1 {
		panic(fmt.Sprintf("experiment: WarmupEpochs %d below 1", cfg.WarmupEpochs))
	}
	return cfg.WarmupEpochs
}

// techSpec is the simjob spec of one run of w under a simjob technique
// (a baseline such as "DCRA", or a HILL variant such as "HILL-WIPC"):
// the spec `smtsim -tech` and a /v1/jobs request name, so every path
// runs it through simjob.Run and shares one memo and cache entry.
func techSpec(cfg Config, w workload.Workload, tech string) simjob.Spec {
	return simjob.Spec{
		Workload:  w.Name(),
		Tech:      tech,
		Epochs:    cfg.Epochs,
		EpochSize: cfg.EpochSize,
		Warmup:    warmupEpochs(cfg),
	}
}

// techIPCs runs every workload of loads under every technique of techs
// as one batch of simjob jobs and returns the per-thread IPCs over the
// measured epochs, indexed by workload name, then technique.
func techIPCs(cfg Config, loads []workload.Workload, techs []string) map[string]map[string][]float64 {
	var jobs []sweep.Job[simjob.Result]
	for _, w := range loads {
		for _, tech := range techs {
			jobs = append(jobs, simjob.Job(techSpec(cfg, w, tech), tele))
		}
	}
	res := mustRun(jobs)
	out := make(map[string]map[string][]float64, len(loads))
	for _, w := range loads {
		out[w.Name()] = make(map[string][]float64, len(techs))
		for _, tech := range techs {
			threads := res[techSpec(cfg, w, tech).Key()].Threads
			ipc := make([]float64, len(threads))
			for i, th := range threads {
				ipc[i] = th.IPC
			}
			out[w.Name()][tech] = ipc
		}
	}
	return out
}

// offLineKey identifies one OFF-LINE ideal run. Its trial scoring reads
// the reference singles, which are fully determined by the workload's
// apps plus SoloCycles, so SoloCycles stands in for them in the key. The
// hill-width levels are constants, covered by resultsVersion.
func offLineKey(cfg Config, w workload.Workload) string {
	return sweep.KeyFrom(keyPrefix("offline"), map[string]string{
		"wl":     w.Name(),
		"es":     strconv.Itoa(cfg.EpochSize),
		"ep":     strconv.Itoa(cfg.Epochs),
		"wu":     strconv.Itoa(warmupEpochs(cfg)),
		"stride": strconv.Itoa(cfg.OffLineStride),
		"sc":     strconv.Itoa(cfg.SoloCycles),
	})
}

func offLineJob(cfg Config, w workload.Workload, singles []float64) sweep.Job[offLineResult] {
	return sweep.Job[offLineResult]{
		Key: offLineKey(cfg, w),
		Run: func(context.Context) (offLineResult, error) {
			return runOffLine(cfg, w, singles), nil
		},
	}
}

// offLineBatch runs the OFF-LINE search of every workload in loads as
// one batch. Figures 4, 7 and 11 all call it, so under one engine each
// workload is searched once.
func offLineBatch(cfg Config, loads []workload.Workload, solos map[string]float64) map[string]offLineResult {
	jobs := make([]sweep.Job[offLineResult], 0, len(loads))
	for _, w := range loads {
		jobs = append(jobs, offLineJob(cfg, w, singlesFor(solos, w)))
	}
	return mustRun(jobs)
}

// randHillKey identifies one RAND-HILL ideal run (same singles
// dependency as OFF-LINE).
func randHillKey(cfg Config, w workload.Workload) string {
	return sweep.KeyFrom(keyPrefix("randhill"), map[string]string{
		"wl":    w.Name(),
		"es":    strconv.Itoa(cfg.EpochSize),
		"ep":    strconv.Itoa(cfg.Epochs),
		"wu":    strconv.Itoa(warmupEpochs(cfg)),
		"iters": strconv.Itoa(cfg.RandHillIters),
		"sc":    strconv.Itoa(cfg.SoloCycles),
	})
}

func randHillJob(cfg Config, w workload.Workload, singles []float64) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{
		Key: randHillKey(cfg, w),
		Run: func(context.Context) ([]float64, error) {
			return runRandHill(cfg, w, singles), nil
		},
	}
}
