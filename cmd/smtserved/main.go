// Command smtserved runs the simulator as an HTTP service.
//
// Usage:
//
//	smtserved [flags]
//	smtserved -addr :8080 -cache-dir ~/.cache/smthill -j 8
//
// Endpoints:
//
//	POST /v1/jobs                submit a simulation (JSON simjob.Spec)
//	GET  /v1/jobs/{id}           job status and result
//	GET  /v1/jobs/{id}/events    SSE progress stream (replay + live)
//	GET  /v1/experiments/{name}  run a named experiment (table1..fig12)
//	GET  /healthz                liveness (503 while draining)
//	GET  /metrics                text metrics exposition
//	GET  /debug/traces           recorded trace spans (with -trace-sample)
//	GET  /metrics/cluster        federated fleet metrics (coordinator role)
//
// Identical submissions share the sweep engine's memo and, with
// -cache-dir, its content-addressed disk cache — the second client gets
// the cached result. SIGINT/SIGTERM drains gracefully: admission stops,
// in-flight jobs finish (up to -drain-timeout), queued jobs are
// cancelled, and the process exits 0.
//
// # Cluster mode
//
// -role selects the node's fabric role (see internal/fabric and the
// "Distributed fabric" section of DESIGN.md):
//
//	-role standalone   (default) single-process daemon, exactly as above
//	-role coordinator  also serve /fabric/v1/* (register, heartbeat,
//	                   shared result store) and dispatch this node's
//	                   sweep jobs across registered workers
//	-role worker       register with -coordinator, serve /fabric/v1/exec,
//	                   and read results through the coordinator's store
//
// A coordinator plus N workers produce byte-identical experiment output
// to a standalone daemon: job keys encode everything a result depends
// on, and any fabric failure falls back to local compute.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"smthill/internal/experiment"
	"smthill/internal/fabric"
	"smthill/internal/obs"
	"smthill/internal/serve"
	"smthill/internal/sweep"
	"smthill/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("j", 0, "job worker pool size (0 = GOMAXPROCS); CPUs it leaves idle run trial waves in parallel")
		queueDepth   = flag.Int("queue", 64, "job queue capacity (submissions beyond it get 429)")
		cacheDir     = flag.String("cache-dir", "", "on-disk result cache directory (empty = in-memory memo only)")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "per-job execution timeout")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "non-streaming request timeout")
		rate         = flag.Float64("rate", 50, "per-client requests/second on /v1 endpoints (<0 disables)")
		burst        = flag.Int("burst", 100, "per-client burst allowance")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "how long shutdown waits for in-flight jobs")
		retainJobs   = flag.Int("retain-jobs", 1024, "finished jobs kept pollable before the oldest are evicted")
		retainFor    = flag.Duration("retain-for", 15*time.Minute, "how long a finished job stays pollable")
		paper        = flag.Bool("paper", false, "paper-scale experiment configuration (slow)")

		role      = flag.String("role", "standalone", "fabric role: standalone, coordinator, or worker")
		coordURL  = flag.String("coordinator", "", "coordinator base URL (required with -role worker)")
		advertise = flag.String("advertise", "", "base URL the coordinator dials back for exec (worker; default http://<listen-addr>)")
		nodeID    = flag.String("node-id", "", "this worker's fabric identity (default: the advertise address)")
		heartbeat = flag.Duration("heartbeat", 2*time.Second, "worker heartbeat interval")
		hbTimeout = flag.Duration("heartbeat-timeout", 10*time.Second, "coordinator reaps workers silent this long")

		traceSample = flag.Int("trace-sample", 0, "trace 1 in N API requests (0 disables tracing; errors are always sampled)")
		traceRing   = flag.Int("trace-ring", 2048, "spans retained in the in-process ring behind /debug/traces")
		traceOut    = flag.String("trace-out", "", "also export recorded spans as telemetry events to this file (.csv or JSONL)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "smtserved: ", log.LstdFlags)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := serve.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheDir:       *cacheDir,
		JobTimeout:     *jobTimeout,
		RequestTimeout: *reqTimeout,
		RatePerSec:     *rate,
		Burst:          *burst,
		RetainJobs:     *retainJobs,
		RetainFor:      *retainFor,
		Logf:           logger.Printf,
	}
	if *paper {
		cfg.Experiments = experiment.Paper()
	}

	// Observability: one node-wide metric registry (serve and fabric
	// series render on a single /metrics scrape) and, with
	// -trace-sample, a tracer behind /debug/traces.
	reg := obs.NewRegistry()
	cfg.Registry = reg
	var tracer *obs.Tracer
	if *traceSample > 0 {
		node := *nodeID
		if node == "" {
			node = *role
		}
		tcfg := obs.TracerConfig{Node: node, SampleN: *traceSample, RingCapacity: *traceRing}
		if *traceOut != "" {
			sink, closeSink, err := telemetry.OpenSink(*traceOut)
			if err != nil {
				logger.Print(err)
				return 1
			}
			defer closeSink()
			tcfg.Exporter = obs.SinkExporter(sink)
		}
		tracer = obs.NewTracer(tcfg)
	}
	cfg.Tracer = tracer

	// localCache opens the -cache-dir disk cache when configured; fabric
	// roles compose it into their store stack instead of handing it to
	// serve directly.
	localCache := func() (sweep.Backend, error) {
		if *cacheDir == "" {
			return nil, nil
		}
		c, err := sweep.NewCache(*cacheDir)
		if err != nil {
			return nil, err
		}
		c.SetLogf(logger.Printf)
		return c, nil
	}

	var coord *fabric.Coordinator
	var workerStore *fabric.StoreClient
	switch *role {
	case "standalone":
		// Exactly the single-process daemon: no fabric surface at all.
	case "coordinator":
		store, err := localCache()
		if err != nil {
			logger.Print(err)
			return 1
		}
		coord = fabric.NewCoordinator(fabric.CoordinatorConfig{
			Store:            store,
			HeartbeatTimeout: *hbTimeout,
			Logf:             logger.Printf,
			Tracer:           tracer,
			ScrapeInterval:   *heartbeat,
		})
		cfg.CacheDir = ""
		cfg.Backend = coord.Backend()
		cfg.Remote = coord
		reg.Attach(coord.Registry())
		cfg.ExtraHealth = coord.Health
	case "worker":
		if *coordURL == "" {
			logger.Print("-role worker requires -coordinator")
			return 2
		}
		local, err := localCache()
		if err != nil {
			logger.Print(err)
			return 1
		}
		if local == nil {
			local = fabric.NewMemStore()
		}
		workerStore = fabric.NewStoreClient(*coordURL, local, nil)
		cfg.CacheDir = ""
		cfg.Backend = workerStore
	default:
		logger.Printf("unknown -role %q (standalone, coordinator, worker)", *role)
		return 2
	}

	// The worker is built after serve.New (it wraps the server's engine);
	// its health surface is wired into cfg now and late-binds through an
	// atomic pointer. Its metric registry is attached to the node
	// registry at construction — /metrics reads the registry at scrape
	// time, so the late attach is invisible to clients.
	var wp atomic.Pointer[fabric.Worker]
	if *role == "worker" {
		cfg.ExtraHealth = func() map[string]any {
			if w := wp.Load(); w != nil {
				return w.Health()
			}
			return nil
		}
	}

	srv, err := serve.New(cfg)
	if err != nil {
		logger.Print(err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	// The smoke test (and humans using port 0) read the bound address
	// off this line.
	logger.Printf("listening on %s", ln.Addr())

	// Assemble the HTTP surface. Fabric roles mount their control plane
	// under /fabric/v1/ next to the serve API; standalone serves the API
	// alone, byte-identical to the pre-fabric daemon.
	handler := http.Handler(srv)
	switch *role {
	case "coordinator":
		mux := http.NewServeMux()
		mux.Handle("/fabric/v1/", coord.Handler())
		mux.HandleFunc("GET /metrics/cluster", coord.HandleClusterMetrics)
		mux.Handle("/", srv)
		handler = mux
		logger.Printf("fabric coordinator ready; workers register at http://%s/fabric/v1/register", ln.Addr())
	case "worker":
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		id := *nodeID
		if id == "" {
			id = adv
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID:             id,
			CoordinatorURL: *coordURL,
			AdvertiseURL:   adv,
			HeartbeatEvery: *heartbeat,
			Logf:           logger.Printf,
			Tracer:         tracer,
		}, srv.Engine(), workerStore)
		reg.Attach(w.Registry())
		wp.Store(w)
		w.Start(ctx)
		mux := http.NewServeMux()
		mux.Handle("/fabric/v1/", w.Handler())
		mux.Handle("/", srv)
		handler = mux
		logger.Printf("fabric worker %s joining %s (advertising %s)", id, *coordURL, adv)
	}

	hs := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		logger.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	logger.Printf("shutting down: draining in-flight jobs (timeout %s)", *drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Printf("drain incomplete: %v (running jobs were cancelled)", err)
		code = 1
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
		if code == 0 {
			code = 1
		}
	}
	if code == 0 {
		logger.Print("drained cleanly")
	}
	return code
}
