package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"smthill/internal/experiment"
)

// workloadDef is one named workload. why is the reason it exists;
// BENCHMARK.json repeats it word for word.
type workloadDef struct {
	name string
	why  string
	run  func(r *run) error
}

var workloads = []workloadDef{
	{"fig4-offline", "OFF-LINE checkpoints, MachineBatch refills and lock-step waves do most of the work; one sweep worker leaves the second CPU idle", runFig4},
	{"fig9-online", "single-machine cycle loop with the hill climber and SingleIPC sampling; no MachineBatch runs, so batch changes should not move it", runFig9},
	{"serve-jobs", "small jobs through an in-process smtserved: admission, queueing, JSON, SSE and the always-on recorder are a visible share of latency", runServe},
	{"fabric-fig9", "many short sweep jobs over a coordinator and two workers: dispatch, exec round-trips and store write-back are a visible share", runFabric},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const (
	// minRounds is the fewest timed rounds a median is taken over (per
	// kind, in a traced run that alternates untraced and traced rounds).
	minRounds = 3
	// hardCap stops a run that has not met its minimums in time, well
	// inside the contract's 180 s.
	hardCap = 150 * time.Second
	// minLatencySamples puts minTail samples beyond the p95.
	minLatencySamples = 200
)

// run is one process's measurement: the workload's rounds append to it,
// result folds it into the contract's JSON object.
type run struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	in       inputs
	cfg      experiment.Config // scale of the figure and fabric workloads
	began    time.Time

	attempted, failed int
	problems          []string
	notes             []string

	setupS  []float64 // every set-up
	wallS   []float64 // untraced timed rounds
	tracedS []float64 // traced timed rounds
	latency []float64 // job latencies from untraced rounds
	// layer holds per-layer samples, one per traced round (or probe
	// repetition); a traced run reports each one's median.
	layer   map[string][]float64
	spans   *spanLog
	profile stackShares
}

func newRun(name string, seed uint64, budget time.Duration, traced bool) *run {
	r := &run{
		workload: name, seed: seed, budget: budget, traced: traced,
		in: newInputs(seed), cfg: figConfig, began: time.Now(), layer: map[string][]float64{},
	}
	if traced {
		r.spans = newSpanLog()
	}
	return r
}

// problemf records a failed correctness check; the run then reports
// correct=false.
func (r *run) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// notef records a line printed ahead of the result.
func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) layerAdd(name string, v float64) {
	r.layer[name] = append(r.layer[name], v)
}

// spanLogFor returns the span log a round records into: nil (a no-op)
// unless the round is traced.
func (r *run) spanLogFor(traced bool) *spanLog {
	if traced {
		return r.spans
	}
	return nil
}

// loop runs rounds, each on fresh state, until the budget is spent and
// the minimums are met: minRounds untraced (and, in a traced run,
// minRounds traced) rounds, and enough latency samples for the p95. A
// traced run alternates untraced and traced rounds, so the two compare
// under the same host conditions.
func (r *run) loop(round func(i int, traced bool) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		if err := round(i, r.traced && i%2 == 1); err != nil {
			return err
		}
		last := time.Since(t)
		// Collect the round's garbage before the next one, so peak RSS
		// reflects one round's live state, not how many rounds ran.
		runtime.GC()
		if r.enough(time.Since(start)) {
			return nil
		}
		if time.Since(r.began)+last > hardCap {
			r.problemf("stopped at the %s cap after %d rounds, before the run's minimums were met", hardCap, i+1)
			return nil
		}
	}
}

func (r *run) enough(elapsed time.Duration) bool {
	switch {
	case elapsed < r.budget, len(r.wallS) < minRounds:
		return false
	case r.traced:
		return len(r.tracedS) >= minRounds
	default:
		return len(r.latency) >= minLatencySamples
	}
}

// setup times fn as one set-up.
func (r *run) setup(fn func() error) error {
	t := time.Now()
	err := protect(fn)
	r.setupS = append(r.setupS, time.Since(t).Seconds())
	return err
}

// timed times fn as a round's timed work. In a traced round it also
// takes a CPU profile and the process counters over fn.
func (r *run) timed(traced bool, fn func() error) error {
	if !traced {
		t := time.Now()
		err := protect(fn)
		r.wallS = append(r.wallS, time.Since(t).Seconds())
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t := time.Now()
	err := protect(fn)
	wall := time.Since(t).Seconds()
	cpu := cpuSeconds() - cpu0
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	r.tracedS = append(r.tracedS, wall)
	r.layerAdd("process.cpu_s", cpu)
	r.layerAdd("process.cpu_per_wall", cpu/wall)
	r.layerAdd("process.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	r.layerAdd("process.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	if perr := r.profile.add(prof.Bytes()); perr != nil {
		return fmt.Errorf("read CPU profile: %w", perr)
	}
	if r.profile.raw == nil {
		r.profile.raw = prof.Bytes()
	}
	return err
}

// protect runs fn, turning a panic into an error: the experiment API
// panics when a simulation job fails, and a failed operation must be
// counted, not crash the run.
func protect(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("recovered panic: %v", p)
		}
	}()
	return fn()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// result folds the run into the contract's object: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func (r *run) result() (result, error) {
	values := map[string]float64{}
	if r.traced {
		for name, xs := range r.layer {
			values[name] = median(xs)
		}
		if base := median(r.wallS); base > 0 {
			values["bench.tracing_overhead_pct"] = (median(r.tracedS)/base - 1) * 100
		}
		for _, s := range r.profile.shares() {
			values[s.name] = s.pct
		}
		values["bench.latency_samples"] = float64(len(r.latency))
	} else {
		n := len(r.latency)
		values["wall_s"] = median(r.wallS)
		values["setup_s"] = median(r.setupS)
		values["peak_rss_mb"] = peakRSSMB()
		values["job_latency_p50_s"] = percentile(r.latency, 50)
		values["job_latency_p95_s"] = percentile(r.latency, 95)
		r.notef("%d timed rounds, %d set-ups, %d latency samples (%d beyond p95)",
			len(r.wallS), len(r.setupS), n, beyond(n, 95))
		if beyond(n, 95) < minTail {
			r.problemf("p95 has %d samples beyond it, want at least %d", beyond(n, 95), minTail)
		}
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	known := map[string]bool{}
	for _, m := range catalog(r.traced) {
		known[m.name] = true
		v, ok := values[m.name]
		if !ok && !r.traced {
			return result{}, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	var unknown []string
	for name := range values {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return result{}, fmt.Errorf("metrics %v are not in the catalog", unknown)
	}
	if res.Attempted == 0 {
		r.problemf("no operation was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	for _, p := range r.problems {
		r.notef("FAILED CHECK: %s", p)
	}
	res.Correct = len(r.problems) == 0
	return res, nil
}
