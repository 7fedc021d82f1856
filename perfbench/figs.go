package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"smthill/internal/core"
	"smthill/internal/experiment"
	"smthill/internal/resource"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// figConfig fixes the figure workloads' scale: 4K-cycle epochs, one
// warm-up epoch, and nine measured epochs. The on-line learner spends
// its first T epochs sampling SingleIPC and then needs T+1 more to
// finish a round of T trial directions, so nine lets a 4-thread learner
// decide once (a learner with Epochs <= T never decides at all).
// OFF-LINE's stride of 32 registers gives 7 trials an epoch on a
// 2-thread workload.
var figConfig = experiment.Config{
	EpochSize:     4096,
	Epochs:        9,
	WarmupEpochs:  1,
	OffLineStride: 32,
	RandHillIters: 6,
	SoloCycles:    16384,
}

// figure is one experiment entry point with the two techniques whose
// gain it reports.
type figure struct {
	run        func(experiment.Config, []workload.Workload) []experiment.CompareRow
	techniques []string // every row must score all of these
	gainMetric string
	gainA      string
	gainB      string
}

var (
	fig4 = figure{experiment.Figure4, []string{"ICOUNT", "FLUSH", "DCRA", "OFF-LINE"},
		"experiment.offline_gain_vs_icount_pct", "OFF-LINE", "ICOUNT"}
	fig9 = figure{experiment.Figure9, []string{"ICOUNT", "FLUSH", "DCRA", "HILL"},
		"experiment.hill_gain_vs_dcra_pct", "HILL", "DCRA"}
)

func runFig4(r *run) error { return r.runFigure(fig4, r.in.Fig4) }
func runFig9(r *run) error { return r.runFigure(fig9, r.in.Fig9) }

func byNames(names []string) []workload.Workload {
	out := make([]workload.Workload, len(names))
	for i, n := range names {
		out[i] = workload.ByName(n)
	}
	return out
}

// runFigure times one figure on fresh one-worker engines: each round's
// set-up installs a new engine and computes the SingleIPC references,
// then the timed figure call finds only those in the memo.
func (r *run) runFigure(fig figure, names []string) error {
	loads := byNames(names)
	var digest string
	err := r.loop(func(i int, traced bool) error {
		d, gain, ok := r.figureRound(fig, loads, i, traced)
		if !ok {
			return nil
		}
		if digest == "" {
			digest = d
			r.notef("%d workloads in seed order starting %v; output digest %s; %s %.4f",
				len(names), names[:3], d[:16], fig.gainMetric, gain)
		} else if d != digest {
			r.problemf("round %d output digest %s differs from round 0's %s", i, d[:16], digest[:16])
		}
		return nil
	})
	if err != nil || !r.traced {
		return err
	}
	r.probePipeline()
	return nil
}

// figureRound runs one round and returns the figure text's digest and
// the figure's gain; ok is false when the round failed.
func (r *run) figureRound(fig figure, loads []workload.Workload, i int, traced bool) (digest string, gain float64, ok bool) {
	sl := r.spanLogFor(traced)
	job := fmt.Sprintf("round-%d", i)
	root := sl.open("round", job, 0)
	defer sl.close(root)

	log := newSweepLog()
	err := r.setup(func() error {
		eng := sweep.NewEngine(1)
		eng.SetObserver(log.observe)
		experiment.SetEngine(eng)
		sp := sl.open("experiment.Singles", job, root)
		defer sl.close(sp)
		for _, w := range loads {
			experiment.Singles(r.cfg, w)
		}
		return nil
	})
	r.attempted++
	if err != nil {
		r.failed++
		r.problemf("round %d set-up: %v", i, err)
		return "", 0, false
	}
	solo := log.mark()

	tele := &teleCount{}
	if traced {
		experiment.SetTelemetry(tele)
		defer experiment.SetTelemetry(nil)
	}
	var rows []experiment.CompareRow
	start := time.Now()
	err = r.timed(traced, func() error {
		sp := sl.open("experiment.Figure", job, root)
		defer sl.close(sp)
		rows = fig.run(r.cfg, loads)
		return nil
	})
	wall := time.Since(start)
	jobs, hits := log.since(solo)
	if err != nil {
		r.failed++
		r.problemf("round %d: %v", i, err)
		return "", 0, false
	}
	if msg := checkRows(rows, loads, fig.techniques); msg != "" {
		r.problemf("round %d: %s", i, msg)
	}
	if !traced {
		for _, j := range jobs {
			r.latency = append(r.latency, j.dur.Seconds())
		}
	}
	var text strings.Builder
	experiment.WriteCompare(&text, rows)
	gain = experiment.Gains(rows, fig.gainA, fig.gainB) * 100

	if traced {
		soloJobs, _ := log.since(mark{})
		soloJobs = soloJobs[:solo.jobs]
		addJobSpans(sl, soloJobs, root, job, "sweep.")
		addJobSpans(sl, jobs, root, job, "sweep.")
		r.addSweep(jobs, hits, wall)
		r.layerAdd("sweep.solo_s", familySeconds(soloJobs)["solo"])
		r.layerAdd(fig.gainMetric, gain)
		r.addLearner(tele.sample.Load(), tele.tried.Load(), tele.accepted.Load(), tele.reverted.Load())
		if fig.gainA == "OFF-LINE" {
			r.addOffline(jobs, len(loads))
		}
	}
	return digestOf(text.String()), gain, true
}

// digestOf is the hex SHA-256 of a figure's text.
func digestOf(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// checkRows reports the first way rows fall short of a complete figure:
// one row per workload, in order, each scoring every technique with a
// finite positive value.
func checkRows(rows []experiment.CompareRow, loads []workload.Workload, techs []string) string {
	if len(rows) != len(loads) {
		return fmt.Sprintf("%d rows for %d workloads", len(rows), len(loads))
	}
	for k, row := range rows {
		if row.Workload != loads[k].Name() {
			return fmt.Sprintf("row %d is %s, want %s", k, row.Workload, loads[k].Name())
		}
		for _, t := range techs {
			v, ok := row.Scores[t]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Sprintf("%s scores %s as %v (present %v)", row.Workload, t, v, ok)
			}
		}
	}
	return ""
}

// addSweep reports the sweep layer of one traced figure call: jobs
// computed, memo hits, compute time by family, the median queue wait,
// and the figure's time outside every job's interval.
func (r *run) addSweep(jobs []sweepJob, hits int, wall time.Duration) {
	fam := familySeconds(jobs)
	waits := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		waits = append(waits, j.wait.Seconds())
	}
	r.layerAdd("sweep.jobs", float64(len(jobs)))
	r.layerAdd("sweep.memo_hits", float64(hits))
	r.layerAdd("sweep.baseline_s", fam["baseline"])
	r.layerAdd("sweep.offline_s", fam["offline"])
	r.layerAdd("sweep.hill_s", fam["hill"])
	r.layerAdd("sweep.wait_s", median(waits))
	r.layerAdd("experiment.overhead_s", wall.Seconds()-busySeconds(jobs))
}

// busySeconds is the length of the union of the jobs' intervals: their
// summed time when they ran one at a time, less when they overlapped.
func busySeconds(jobs []sweepJob) float64 {
	iv := make([][2]time.Time, len(jobs))
	for k, j := range jobs {
		iv[k] = [2]time.Time{j.end.Add(-j.dur), j.end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var busy time.Duration
	var reach time.Time
	for _, x := range iv {
		lo := x[0]
		if lo.Before(reach) {
			lo = reach
		}
		if x[1].After(lo) {
			busy += x[1].Sub(lo)
			reach = x[1]
		}
	}
	return busy.Seconds()
}

// addOffline reports OFF-LINE's trial count (epochs times the share
// enumeration of a 2-thread machine, per workload) and the trial cycles
// it simulated per second of its jobs' compute time.
func (r *run) addOffline(jobs []sweepJob, workloads int) {
	perEpoch := 0
	core.EnumerateShares(2, resource.DefaultSizes()[resource.IntRename], r.cfg.OffLineStride,
		func(resource.Shares) { perEpoch++ })
	trials := float64(workloads * r.cfg.Epochs * perEpoch)
	r.layerAdd("core.offline_trials", trials)
	if s := familySeconds(jobs)["offline"]; s > 0 {
		r.layerAdd("core.offline_trial_cycles_per_s", trials*float64(r.cfg.EpochSize)/s)
	}
}
