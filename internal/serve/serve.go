// Package serve exposes the simulator as a long-running HTTP service:
// simulation jobs and named experiments submitted over JSON, executed
// on the internal/sweep engine (sharing its memo and content-addressed
// disk cache across clients), with Server-Sent-Events progress
// streaming, admission control, and graceful drain.
//
// Architecture: submissions pass a per-client token-bucket limiter and
// a bounded FIFO queue (full queue = 429 + Retry-After, never an
// unbounded backlog). A fixed pool of workers drains the queue; each
// simulation job runs as a single-key sweep batch, so the engine's
// determinism contract, panic isolation, memoisation, and disk cache
// all apply unchanged — a second submission of an identical spec is
// answered from cache, visible in /metrics as the sweep hit ratio.
// Experiment jobs reuse experiment.RunNamed through the same engine,
// on a dedicated single-worker lane so their global serialisation
// never parks sim workers. Finished jobs stay pollable until the
// retention policy (RetainJobs/RetainFor) evicts them, keeping the
// store bounded over the daemon's lifetime.
//
// Every job owns an event hub bridging the engine's observer stream and
// the simulator's telemetry sink to SSE subscribers, with replay: a
// client attaching late (or after completion) receives the retained
// history. Shutdown stops admission, lets running jobs finish, cancels
// still-queued ones, then cancels stragglers when the drain context
// expires.
//
// The package deliberately sits outside the simulator's determinism
// boundary (see internal/lint's nondeterminism rule): it may read the
// wall clock for timestamps and latency metrics, but nothing here feeds
// simulator state.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smthill/internal/experiment"
	"smthill/internal/obs"
	"smthill/internal/simjob"
	"smthill/internal/sweep"
	"smthill/internal/telemetry"
)

// Config parameterises a Server. The zero value of every field selects
// a sensible default (see withDefaults).
type Config struct {
	// Workers is the size of the job worker pool and the sweep engine's
	// parallelism (default: GOMAXPROCS). Each computing job holds one of
	// the process's GOMAXPROCS CPU slots; the slots no job holds go to
	// the running jobs' trial waves (see sweep.BorrowCPUs).
	Workers int
	// QueueDepth bounds the FIFO job queue; submissions beyond it are
	// rejected with 429 (default 64).
	QueueDepth int
	// JobTimeout bounds one job's execution (default 10m).
	JobTimeout time.Duration
	// RequestTimeout bounds non-streaming request handling, including
	// the experiments endpoint's synchronous wait (default 30s).
	RequestTimeout time.Duration
	// RatePerSec and Burst configure the per-client token-bucket
	// limiter on /v1 endpoints (default 50/s, burst 100; RatePerSec < 0
	// disables limiting, 0 selects the default).
	RatePerSec float64
	Burst      int
	// CacheDir enables the sweep engine's content-addressed disk cache
	// (empty = memo only).
	CacheDir string
	// Backend, when set, is installed as the engine's result store in
	// place of CacheDir — a fabric node composes its disk cache into a
	// shared-store client (see internal/fabric.StoreClient) and passes
	// the composite here.
	Backend sweep.Backend
	// Remote, when set, is installed as the engine's remote-execution
	// delegate (e.g. a fabric coordinator): each job is offered to it
	// before running locally, and any decline falls back to local
	// compute.
	Remote sweep.Remote
	// Registry, when set, is the node-wide metric registry: the
	// server's own series are attached into it and /metrics renders it
	// whole, so fabric components sharing the registry appear on the
	// same scrape without double-rendering.
	Registry *obs.Registry
	// Tracer, when set, traces /v1/* requests (continuing a client's
	// traceparent or opening a new sampled root), the jobs they spawn,
	// and the learning epochs inside those jobs; /debug/traces serves
	// the recorded spans.
	Tracer *obs.Tracer
	// ExtraHealth merges additional keys into the /healthz body (e.g.
	// fabric role and peer liveness).
	ExtraHealth func() map[string]any
	// RetainJobs caps how many finished jobs stay pollable; beyond it
	// the oldest-finished are evicted, releasing their replay buffers
	// (default 1024). Queued and running jobs are never evicted.
	RetainJobs int
	// RetainFor bounds how long a finished job stays pollable before
	// eviction (default 15m).
	RetainFor time.Duration
	// Experiments scales /v1/experiments runs (zero value =
	// experiment.Default()).
	Experiments experiment.Config
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = 50
	}
	if c.Burst <= 0 {
		c.Burst = 100
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	if c.RetainFor <= 0 {
		c.RetainFor = 15 * time.Minute
	}
	if c.Experiments.Epochs == 0 {
		c.Experiments = experiment.Default()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the daemon: an http.Handler plus the worker pool behind it.
// Create with New, serve with net/http, stop with Shutdown.
//
// Note: New wires the process-global experiment engine (see
// experiment.SetEngine), so run one Server per process if the
// experiments endpoint is used.
type Server struct {
	cfg   Config
	eng   *sweep.Engine
	store *store
	queue chan *job
	// expQueue is the experiments' own lane: experiment jobs serialise
	// on the process-global experiment engine/context (see expMu), so
	// running them on the shared pool would park up to Workers pool
	// slots behind one lock. A dedicated single worker drains this
	// queue instead; sim workers never block on experiments.
	expQueue chan *job
	metrics  *metricsSet
	limits   *limiter
	routes   http.Handler
	tracer   *obs.Tracer
	expose   *obs.Registry // what /metrics renders (node-wide or own)

	baseCtx    context.Context
	cancelBase context.CancelFunc
	wg         sync.WaitGroup

	// admitMu serialises enqueue against Shutdown's queue close;
	// draining flips once and is also read lock-free on the worker path.
	admitMu  sync.Mutex
	draining atomic.Bool
	inflight atomic.Int64

	// keyMu guards the sweep-key -> watching-jobs index used to route
	// engine observer events to job hubs.
	keyMu    sync.Mutex
	watchers map[string]map[*job]struct{} // guarded by keyMu

	// expMu serialises experiment jobs: experiment's engine/context
	// installation is process-global, so at most one named experiment
	// runs at a time (its inner simulations still fan out on the
	// engine's worker pool). The dedicated expQueue worker makes it
	// uncontended in practice; the lock stays as a guard against any
	// other caller reaching runExperiment.
	expMu  sync.Mutex
	expJob atomic.Pointer[job]
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		eng:        sweep.NewEngine(cfg.Workers),
		store:      newStore(),
		queue:      make(chan *job, cfg.QueueDepth),
		expQueue:   make(chan *job, cfg.QueueDepth),
		metrics:    newMetrics(time.Now()),
		limits:     newLimiter(cfg.RatePerSec, cfg.Burst),
		baseCtx:    ctx,
		cancelBase: cancel,
		watchers:   make(map[string]map[*job]struct{}),
		tracer:     cfg.Tracer,
	}
	s.metrics.registerServerGauges(s)
	if cfg.Registry != nil {
		cfg.Registry.Attach(s.metrics.reg)
		s.expose = cfg.Registry
	} else {
		s.expose = s.metrics.reg
	}
	switch {
	case cfg.Backend != nil:
		s.eng.SetBackend(cfg.Backend)
	case cfg.CacheDir != "":
		c, err := sweep.NewCache(cfg.CacheDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("serve: open cache: %w", err)
		}
		c.SetLogf(cfg.Logf)
		s.eng.SetCache(c)
	}
	if cfg.Remote != nil {
		s.eng.SetRemote(cfg.Remote)
	}
	s.eng.AddObserver(s.observeSweep)
	experiment.SetEngine(s.eng)
	s.routes = s.buildRoutes()
	s.wg.Add(cfg.Workers + 1)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(s.queue)
	}
	go s.worker(s.expQueue)
	go s.janitor()
	return s, nil
}

// janitor periodically evicts finished jobs past the retention policy,
// keeping the store (and each evicted job's replay buffer) bounded over
// a long-running daemon's lifetime. It exits when the base context is
// cancelled at the end of Shutdown.
func (s *Server) janitor() {
	tick := s.cfg.RetainFor / 4
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-t.C:
			if n := s.store.evictTerminal(now, s.cfg.RetainFor, s.cfg.RetainJobs); n > 0 {
				s.cfg.Logf("serve: evicted %d finished jobs past retention", n)
			}
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.routes.ServeHTTP(w, r)
}

// Engine returns the sweep engine, for tests that pre-warm the cache.
func (s *Server) Engine() *sweep.Engine { return s.eng }

// errQueueFull and errDraining are admission-control outcomes.
var (
	errQueueFull = errors.New("job queue full")
	errDraining  = errors.New("server is draining")
)

// enqueue admits a job to its kind's FIFO queue (experiments have a
// dedicated lane, see expQueue), or reports why it cannot.
func (s *Server) enqueue(j *job) error {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining.Load() {
		return errDraining
	}
	q := s.queue
	if j.kind == kindExperiment {
		q = s.expQueue
	}
	select {
	case q <- j:
		j.publishState() // "queued"
		s.metrics.jobSubmitted()
		return nil
	default:
		return errQueueFull
	}
}

// worker drains one queue until Shutdown closes it. Once draining,
// still-queued jobs are cancelled rather than started.
func (s *Server) worker(queue chan *job) {
	defer s.wg.Done()
	for j := range queue {
		if s.draining.Load() {
			j.fail(StateCanceled, "canceled: server shutting down", time.Now())
			s.metrics.jobFinished(StateCanceled)
			continue
		}
		s.runJob(j)
	}
}

// runJob executes one job with panic isolation: a panic that escapes
// the sweep engine's own recovery (or lives in serve's glue) fails the
// job, never the worker.
func (s *Server) runJob(j *job) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer func() {
		if p := recover(); p != nil {
			s.cfg.Logf("serve: job %s panic: %v", j.id, p)
			j.fail(StateFailed, fmt.Sprintf("internal error: %v", p), time.Now())
			s.metrics.jobFinished(StateFailed)
		}
	}()

	j.setRunning(time.Now())
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()

	// The job runs after its submit request returned 202, so the submit
	// span has ended; continue its trace from the SpanContext captured
	// at admission. With tracing off (or an unsampled submit) this is a
	// nil no-op span.
	ctx, span := s.tracer.StartFrom(ctx, j.trace, "serve.job", obs.KindInternal)
	span.SetAttr("job", j.id)
	if j.kind == kindSim {
		span.SetAttr("key", j.key)
	} else {
		span.SetAttr("experiment", j.expName)
	}

	switch j.kind {
	case kindSim:
		s.runSim(ctx, j)
	case kindExperiment:
		s.runExperiment(ctx, j)
	}
	state, _, _, _, _, _, _, _ := j.snapshot()
	span.SetAttr("state", string(state))
	if state == StateFailed {
		span.End(errors.New("job failed"))
	} else {
		span.End(nil)
	}
	s.metrics.jobFinished(state)
}

// runSim executes a simulation job as a single-key sweep batch, so
// memoisation, disk caching, and the engine's panic recovery apply.
// Per-epoch telemetry is bridged onto the job's hub.
func (s *Server) runSim(ctx context.Context, j *job) {
	sink := telemetry.SinkFunc(func(ev telemetry.Event) {
		if b, err := json.Marshal(ev); err == nil {
			j.hub.publish(ev.Type, string(b))
		}
	})
	s.watch(j.key, j)
	defer s.unwatch(j.key, j)

	// Epoch events reach the job's SSE stream through sink.
	res, err := sweep.Run(ctx, s.eng, []sweep.Job[simjob.Result]{simjob.Job(j.spec, sink)})
	if r, ok := res[j.key]; ok {
		// Completed even if the context fired during teardown.
		s.metrics.observeSim(r)
		j.completeSim(r, time.Now())
		return
	}
	s.finishError(j, ctx, err)
}

// runExperiment renders one named experiment through
// experiment.RunNamed on the shared engine. Experiments are serialised
// (see expMu); their inner simulation batches still run in parallel.
func (s *Server) runExperiment(ctx context.Context, j *job) {
	s.expMu.Lock()
	defer s.expMu.Unlock()
	s.expJob.Store(j)
	defer s.expJob.Store(nil)
	experiment.SetContext(ctx)
	defer experiment.SetContext(nil)

	var buf bytes.Buffer
	err := experiment.RunNamed(j.expCfg, j.expName, j.expOpts, &buf)
	if err == nil {
		j.completeText(buf.String(), time.Now())
		return
	}
	s.finishError(j, ctx, err)
}

// finishError maps a run error to a terminal state: shutdown
// cancellation is "canceled" (not a failure — see the sweep package's
// cancellation contract), a deadline is a failure with a timeout
// message, anything else is a plain failure.
func (s *Server) finishError(j *job, ctx context.Context, err error) {
	now := time.Now()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		j.fail(StateFailed, fmt.Sprintf("job timed out after %s", s.cfg.JobTimeout), now)
	case errors.Is(err, context.Canceled):
		j.fail(StateCanceled, "canceled: server shutting down", now)
	case err != nil:
		j.fail(StateFailed, err.Error(), now)
	default:
		j.fail(StateFailed, "job produced no result", now)
	}
}

// watch registers j to receive engine events for key.
func (s *Server) watch(key string, j *job) {
	s.keyMu.Lock()
	m, ok := s.watchers[key]
	if !ok {
		m = make(map[*job]struct{})
		s.watchers[key] = m
	}
	m[j] = struct{}{}
	s.keyMu.Unlock()
}

func (s *Server) unwatch(key string, j *job) {
	s.keyMu.Lock()
	if m, ok := s.watchers[key]; ok {
		delete(m, j)
		if len(m) == 0 {
			delete(s.watchers, key)
		}
	}
	s.keyMu.Unlock()
}

// sweepEventJSON is the SSE payload for engine progress events.
type sweepEventJSON struct {
	Kind      string  `json:"kind"`
	Key       string  `json:"key"`
	Source    string  `json:"source,omitempty"`
	Seconds   float64 `json:"seconds,omitempty"`
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	CacheHits int     `json:"cache_hits"`
}

func sweepKindName(k sweep.EventKind) string {
	switch k {
	case sweep.JobQueued:
		return "queued"
	case sweep.JobStarted:
		return "started"
	case sweep.JobDone:
		return "done"
	}
	return "unknown"
}

// observeSweep is the engine observer: it feeds the cache-hit metrics,
// records a sim job's result source, and routes progress events to the
// hubs of jobs watching that key (plus the current experiment job's
// hub, so experiment SSE streams show per-simulation progress).
func (s *Server) observeSweep(ev sweep.Event) {
	s.metrics.observeSweep(ev)

	s.keyMu.Lock()
	var watching []*job
	// Order across distinct jobs' hubs is immaterial: each hub receives
	// the same event, and per-hub event order is fixed by the engine's
	// observer mutex, not by this collection order.
	for j := range s.watchers[ev.Key] {
		//smtlint:ignore map-order fan-out set; every element gets an identical event
		watching = append(watching, j)
	}
	s.keyMu.Unlock()

	exp := s.expJob.Load()
	if len(watching) == 0 && exp == nil {
		return
	}
	payload := sweepEventJSON{
		Kind: sweepKindName(ev.Kind), Key: ev.Key, Source: string(ev.Source),
		Seconds: ev.Duration.Seconds(), Done: ev.Done, Total: ev.Total,
		CacheHits: ev.CacheHits,
	}
	if ev.Kind != sweep.JobDone {
		payload.Source = ""
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return
	}
	data := string(b)
	for _, j := range watching {
		if ev.Kind == sweep.JobDone {
			j.setSource(ev.Source)
		}
		j.hub.publish("sweep", data)
	}
	if exp != nil {
		exp.hub.publish("sweep", data)
	}
}

// Shutdown gracefully stops the Server: admission closes (new
// submissions get 503), running jobs finish, still-queued jobs are
// cancelled. If ctx expires first, running jobs are cancelled too (they
// stop at their next epoch boundary) and Shutdown waits for the workers
// to exit before returning ctx's error. A nil error means every
// in-flight job completed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	if s.draining.Swap(true) {
		s.admitMu.Unlock()
		return nil
	}
	close(s.queue)
	close(s.expQueue)
	s.admitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelBase()
		<-done
	}
	s.cancelBase()
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }
