// Package sweep runs batches of independent, deterministic simulation
// jobs on a worker pool, with optional content-addressed disk caching of
// results.
//
// The experiment suite (internal/experiment) is a schedulable sweep:
// every figure and table decomposes into dozens of fully independent
// cycle-level simulations, each owning its own pipeline.Machine and
// seeded rng state. The engine exploits that independence three ways:
//
//   - parallelism: jobs run on a bounded worker pool (default
//     runtime.GOMAXPROCS(0)) with per-job panic recovery and
//     context.Context cancellation; each running job holds one slot of
//     the process-wide CPU budget, and trial waves inside a job borrow
//     the slots no job holds (BorrowCPUs);
//   - in-process memoisation: a job key identifies its result uniquely,
//     so shared sub-results (the stand-alone Singles runs, baseline runs
//     reused by several figures) are computed once per process;
//   - on-disk caching: an optional Cache persists results across
//     invocations, content-addressed by a hash of the job key and a
//     schema-version constant.
//
// Determinism contract: a Job's Run must be a pure function of its Key —
// two jobs with equal keys must produce identical results regardless of
// execution order, worker count, or which process computes them. Under
// that contract the engine guarantees byte-identical experiment output
// whether jobs run serially, in parallel, or out of a cache: results are
// returned keyed by job key and callers assemble output in their own
// deterministic order. Cached results round-trip through JSON, which is
// exact for float64 (encoding/json emits the shortest representation
// that round-trips) and for integer and string fields.
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"smthill/internal/obs"
)

// Job is one independent unit of simulation work producing a result of
// type R. Key must uniquely determine the result (see the package
// determinism contract): it should encode the workload, technique, and
// every configuration field the run depends on. R must marshal to JSON
// losslessly for memoisation and disk caching to preserve byte-identical
// output.
type Job[R any] struct {
	// Key is the stable identity of the job, used for deduplication,
	// memoisation, and cache addressing.
	Key string
	// Run computes the result. It must not depend on shared mutable
	// state; ctx is cancelled when the batch is aborted.
	Run func(ctx context.Context) (R, error)
}

// Engine executes job batches. The zero value is not usable; construct
// with NewEngine. Configure (SetCache, SetObserver) before the first Run
// call; an Engine may then be shared by concurrent Run calls and reused
// across batches, accumulating its in-process memo.
type Engine struct {
	workers   int
	cache     Backend
	remote    Remote
	observers []func(Event)

	mu   sync.Mutex
	memo map[string][]byte // guarded by mu; job key -> JSON result

	// eventMu serialises observer callbacks engine-wide, so an observer
	// needs no locking even when Run calls overlap.
	eventMu sync.Mutex
}

// NewEngine returns an engine running at most workers jobs concurrently;
// workers <= 0 selects runtime.GOMAXPROCS(0).
func NewEngine(workers int) *Engine {
	return &Engine{workers: workers, memo: map[string][]byte{}}
}

// Workers returns the effective worker-pool size.
func (e *Engine) Workers() int {
	if e.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// SetCache attaches an on-disk result cache (nil detaches it). It is
// shorthand for SetBackend with the canonical disk implementation.
func (e *Engine) SetCache(c *Cache) {
	if c == nil {
		e.cache = nil // avoid a typed-nil Backend
		return
	}
	e.cache = c
}

// SetObserver installs fn as the only progress hook, replacing any
// observers added so far (nil removes them all). Events are delivered
// serially (never concurrently), but from worker goroutines.
func (e *Engine) SetObserver(fn func(Event)) {
	if fn == nil {
		e.observers = nil
		return
	}
	e.observers = []func(Event){fn}
}

// AddObserver subscribes an additional progress hook; every installed
// observer sees every event, in subscription order. Like SetObserver and
// SetCache it must be called before the first Run — the observer list is
// read without locking by running batches.
func (e *Engine) AddObserver(fn func(Event)) {
	if fn != nil {
		e.observers = append(e.observers, fn)
	}
}

// emit fans an event out to every observer. Callers hold eventMu.
func (e *Engine) emit(ev Event) {
	for _, fn := range e.observers {
		fn(ev)
	}
}

// lookup consults the in-process memo, then the disk cache. A disk hit
// is promoted into the memo.
func (e *Engine) lookup(ctx context.Context, key string) ([]byte, Source, bool) {
	e.mu.Lock()
	raw, ok := e.memo[key]
	e.mu.Unlock()
	if ok {
		return raw, FromMemo, true
	}
	if e.cache != nil {
		if raw, ok := e.cache.Get(ctx, key); ok {
			e.remember(key, raw)
			return raw, FromCache, true
		}
	}
	return nil, FromRun, false
}

func (e *Engine) remember(key string, raw []byte) {
	e.mu.Lock()
	e.memo[key] = raw
	e.mu.Unlock()
}

// store records a freshly computed result in the memo and, best-effort,
// the disk cache. Marshal failures (e.g. NaN scores) skip caching: the
// caller still gets the in-memory value, only reuse is lost.
func (e *Engine) store(ctx context.Context, key string, val any) {
	raw, err := json.Marshal(val)
	if err != nil {
		return
	}
	e.remember(key, raw)
	if e.cache != nil {
		_ = e.cache.Put(ctx, key, raw) // cache write failure is not a job failure
	}
}

// batch tracks the counters reported in Events for one Run call. mu is
// the owning engine's eventMu, shared across batches.
type batch struct {
	mu        *sync.Mutex
	emit      func(Event)
	total     int // immutable after newBatch
	running   int // guarded by mu
	done      int // guarded by mu
	cacheHits int // guarded by mu
}

func (b *batch) event(kind EventKind, key string, src Source, dur time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch kind {
	case JobStarted:
		b.running++
	case JobDone:
		b.done++
		if src == FromRun || src == FromRemote {
			b.running-- // the job occupied a worker slot either way
		} else {
			b.cacheHits++
		}
	}
	if b.emit == nil {
		return
	}
	b.emit(Event{
		Kind: kind, Key: key, Source: src, Duration: dur,
		Queued: b.total - b.done - b.running, Running: b.running,
		Done: b.done, Total: b.total, CacheHits: b.cacheHits,
	})
}

// Run executes the batch on e's worker pool and returns the results
// keyed by job key. Jobs sharing a key are computed once (the first
// occurrence wins). On the first job error — including a recovered
// panic — the remaining jobs are cancelled and the error of the
// earliest-submitted failing job is returned, so the failure surfaced is
// deterministic. When ctx is cancelled (or times out) the batch stops
// promptly — workers finish their current job and drain the rest without
// running them — and Run returns the results of every job completed
// before the cancellation together with the context's error, never
// misreporting the cancellation as a job failure.
func Run[R any](ctx context.Context, e *Engine, jobs []Job[R]) (map[string]R, error) {
	if e == nil {
		e = NewEngine(0)
	}
	uniq := make([]Job[R], 0, len(jobs))
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Key == "" {
			return nil, fmt.Errorf("sweep: job with empty key")
		}
		if !seen[j.Key] {
			seen[j.Key] = true
			uniq = append(uniq, j)
		}
	}

	var emit func(Event)
	if len(e.observers) > 0 {
		emit = e.emit
	}
	st := &batch{mu: &e.eventMu, emit: emit, total: len(uniq)}
	results := make(map[string]R, len(uniq))

	// Resolve memo and cache hits up front so workers only see jobs that
	// must execute. A hit that fails to unmarshal (stale or corrupt
	// entry) falls through to recomputation.
	var pending []Job[R]
	for _, j := range uniq {
		st.event(JobQueued, j.Key, FromRun, 0)
		if raw, src, ok := e.lookup(ctx, j.Key); ok {
			var r R
			if err := json.Unmarshal(raw, &r); err == nil {
				results[j.Key] = r
				st.event(JobDone, j.Key, src, 0)
				continue
			}
		}
		pending = append(pending, j)
	}
	if len(pending) == 0 {
		return results, ctx.Err()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type indexed struct {
		idx int
		job Job[R]
	}
	type outcome struct {
		idx int
		key string
		val R
		err error
	}
	in := make(chan indexed)
	out := make(chan outcome)

	var wg sync.WaitGroup
	for w := 0; w < min(e.Workers(), len(pending)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ij := range in {
				if err := ctx.Err(); err != nil {
					out <- outcome{idx: ij.idx, key: ij.job.Key, err: err}
					continue
				}
				st.event(JobStarted, ij.job.Key, FromRun, 0)
				start := time.Now()
				// One span per executed job: the "compute" segment of a
				// distributed trace. With no span in ctx this is a nil
				// no-op (see internal/obs).
				sctx, span := obs.Start(ctx, "sweep.exec", obs.KindInternal)
				span.SetAttr("key", ij.job.Key)
				val, src, err := execute(sctx, e, ij.job)
				span.SetAttr("source", string(src))
				span.End(err)
				st.event(JobDone, ij.job.Key, src, time.Since(start))
				out <- outcome{idx: ij.idx, key: ij.job.Key, val: val, err: err}
			}
		}()
	}
	go func() {
		defer close(in)
		for i, j := range pending {
			select {
			case in <- indexed{i, j}:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()

	// Report the earliest-submitted genuine failure. Once a job fails,
	// the remaining jobs drain with context.Canceled; those must not
	// mask the root cause.
	firstErrIdx := -1
	var firstErr, cancelErr error
	for oc := range out {
		if oc.err != nil {
			if errors.Is(oc.err, context.Canceled) || errors.Is(oc.err, context.DeadlineExceeded) {
				cancelErr = oc.err
			} else if firstErrIdx < 0 || oc.idx < firstErrIdx {
				firstErrIdx, firstErr = oc.idx, oc.err
			}
			cancel()
			continue
		}
		results[oc.key] = oc.val
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if cancelErr != nil {
		// Cancellation is not a job failure: completed jobs' results are
		// returned alongside the context error so callers can keep partial
		// work (and cached entries already written stay valid).
		return results, cancelErr
	}
	return results, ctx.Err()
}

// execute computes one job, preferring the engine's remote delegate
// when one is installed. A remote result is adopted only if it
// unmarshals as R; its exact bytes are remembered (and offered to the
// backend) so a later local lookup serves what the remote computed,
// byte for byte. A declined or malformed remote answer falls back to
// the local run — distribution is an optimisation, never a correctness
// dependency.
func execute[R any](ctx context.Context, e *Engine, j Job[R]) (R, Source, error) {
	if e.remote != nil {
		raw, handled, err := e.remote.Exec(ctx, j.Key)
		if err != nil {
			var zero R
			return zero, FromRemote, err
		}
		if handled {
			var val R
			if uerr := json.Unmarshal(raw, &val); uerr == nil {
				e.remember(j.Key, raw)
				if e.cache != nil {
					_ = e.cache.Put(ctx, j.Key, raw)
				}
				return val, FromRemote, nil
			}
		}
	}
	val, err := runSafe(ctx, j)
	if err == nil {
		e.store(ctx, j.Key, val)
	}
	return val, FromRun, err
}

// runSafe invokes the job, converting a panic into an error carrying the
// job key and stack so one diverging simulation cannot take down the
// whole sweep. The job holds one CPU slot of the budget while it runs.
func runSafe[R any](ctx context.Context, j Job[R]) (val R, err error) {
	jobsRunning.Add(1)
	defer func() {
		jobsRunning.Add(-1)
		if p := recover(); p != nil {
			err = fmt.Errorf("sweep: job %s panicked: %v\n%s", j.Key, p, debug.Stack())
		}
	}()
	return j.Run(ctx)
}
