package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smthill/internal/pipeline"
	"smthill/internal/sweep"
	"smthill/internal/telemetry"
	"smthill/internal/workload"
)

// sweepJob is one job a sweep engine computed, as its public observer
// reported it.
type sweepJob struct {
	key, family string
	wait, dur   time.Duration // queued->started, compute
	end         time.Time
}

// sweepLog records one engine's observer stream. The engine serialises
// its own events; the lock covers reads from the benchmark while a
// batch runs.
type sweepLog struct {
	mu      sync.Mutex
	queued  map[string]time.Time
	started map[string]time.Time
	jobs    []sweepJob
	hits    int // results served from the memo or a backend
}

func newSweepLog() *sweepLog {
	return &sweepLog{queued: map[string]time.Time{}, started: map[string]time.Time{}}
}

func (l *sweepLog) observe(ev sweep.Event) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch ev.Kind {
	case sweep.JobQueued:
		l.queued[ev.Key] = now
	case sweep.JobStarted:
		l.started[ev.Key] = now
	case sweep.JobDone:
		if ev.Source != sweep.FromRun && ev.Source != sweep.FromRemote {
			l.hits++
			return
		}
		l.jobs = append(l.jobs, sweepJob{
			key: ev.Key, family: family(ev.Key),
			wait: l.started[ev.Key].Sub(l.queued[ev.Key]), dur: ev.Duration, end: now,
		})
	}
}

// mark is a position in the log, so one phase's jobs and hits can be
// told from the next.
type mark struct{ jobs, hits int }

func (l *sweepLog) mark() mark {
	l.mu.Lock()
	defer l.mu.Unlock()
	return mark{len(l.jobs), l.hits}
}

// since returns the jobs computed and the hits served after m.
func (l *sweepLog) since(m mark) ([]sweepJob, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]sweepJob(nil), l.jobs[m.jobs:]...), l.hits - m.hits
}

// family is a job key's family: "baseline", "offline", "hill", "solo",
// "simjob", ...
func family(key string) string {
	prefix, _, err := sweep.ParseKey(key)
	if err != nil {
		return "unknown"
	}
	if i := strings.IndexByte(prefix, '|'); i >= 0 {
		return prefix[i+1:]
	}
	return prefix
}

// familySeconds sums compute time by family.
func familySeconds(jobs []sweepJob) map[string]float64 {
	out := map[string]float64{}
	for _, j := range jobs {
		out[j.family] += j.dur.Seconds()
	}
	return out
}

// addJobSpans records each job as a child span of parent, from its end
// and duration as the observer timed them.
func addJobSpans(sl *spanLog, jobs []sweepJob, parent int, job, prefix string) {
	for _, j := range jobs {
		sl.add(prefix+j.family, job, parent, j.end.Add(-j.dur), j.end)
	}
}

// teleCount is the telemetry sink of traced figure rounds: it counts the
// learner's sampling epochs and hill moves.
type teleCount struct {
	sample, tried, accepted, reverted atomic.Int64
}

func (c *teleCount) Emit(ev telemetry.Event) {
	switch {
	case ev.Type == telemetry.TypeEpoch && ev.Kind == telemetry.KindSample:
		c.sample.Add(1)
	case ev.Type == telemetry.TypeMove && ev.Kind == telemetry.KindTried:
		c.tried.Add(1)
	case ev.Type == telemetry.TypeMove && ev.Kind == telemetry.KindAccepted:
		c.accepted.Add(1)
	case ev.Type == telemetry.TypeMove && ev.Kind == telemetry.KindReverted:
		c.reverted.Add(1)
	}
}

// addLearner reports the learner counters of one traced round.
func (r *run) addLearner(sample, tried, accepted, reverted int64) {
	r.layerAdd("core.sample_epochs", float64(sample))
	r.layerAdd("core.hill_moves_tried", float64(tried))
	if accepted+reverted > 0 {
		r.layerAdd("core.hill_accept_ratio", float64(accepted)/float64(accepted+reverted))
	}
}

// Pipeline probe sizes: cycles to warm a machine, then cycles per timed
// repetition.
const (
	probeWarm    = 65536
	probeCycles  = 32768
	probeReps    = 5
	probeClones  = 20
	probeBatchK  = 8
	probeBatchN  = 4096
	probeRefills = 5
)

// probePipeline times the pipeline layer in isolation, on warmed
// machines of the run's ILP2 and MEM2 picks: raw cycle rate, a
// checkpoint (CloneInto), and a K=8 MachineBatch refill plus lock-step
// cycling as OFF-LINE uses it.
func (r *run) probePipeline() {
	sl := r.spans
	root := sl.open("probe.pipeline", "probe", 0)
	defer sl.close(root)
	var ilp *pipeline.Machine
	for _, p := range []struct{ metric, name string }{
		{"pipeline.cycles_per_s.ilp2", r.in.ProbeILP2},
		{"pipeline.cycles_per_s.mem2", r.in.ProbeMEM2},
	} {
		m := workload.ByName(p.name).NewMachine(nil)
		m.CycleN(probeWarm)
		for i := 0; i < probeReps; i++ {
			t := time.Now()
			m.CycleN(probeCycles)
			sl.add("pipeline.CycleN", "probe", root, t, time.Now())
			r.layerAdd(p.metric, probeCycles/time.Since(t).Seconds())
		}
		if ilp == nil {
			ilp = m
		}
	}

	dst := ilp.Clone()
	for i := 0; i < probeClones; i++ {
		t := time.Now()
		ilp.CloneInto(dst)
		sl.add("pipeline.CloneInto", "probe", root, t, time.Now())
		r.layerAdd("pipeline.checkpoint_us", float64(time.Since(t).Nanoseconds())/1e3)
	}

	b := pipeline.BatchFrom(ilp, probeBatchK)
	defer b.Close()
	for i := 0; i < probeRefills; i++ {
		t := time.Now()
		b.Refill(ilp)
		mid := time.Now()
		b.CycleAllN(probeBatchN)
		end := time.Now()
		sl.add("pipeline.MachineBatch.Refill", "probe", root, t, mid)
		sl.add("pipeline.MachineBatch.CycleAllN", "probe", root, mid, end)
		r.layerAdd("pipeline.batch_refill_us", float64(mid.Sub(t).Nanoseconds())/1e3)
		r.layerAdd("pipeline.batch_cycles_per_s", probeBatchK*probeBatchN/end.Sub(mid).Seconds())
	}
}
