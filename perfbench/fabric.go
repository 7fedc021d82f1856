package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"smthill/internal/experiment"
	"smthill/internal/fabric"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// httpService is a handler served on a loopback listener.
type httpService struct {
	hs     *http.Server
	url    string
	served chan error
}

func listen(h http.Handler) (*httpService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpService{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections and waits for Serve to
// return.
func (s *httpService) stop() {
	_ = s.hs.Close() // Serve returning is what stop waits for; its error says nothing new
	<-s.served
}

// fabricWorkers is the cluster size: two workers, each on its own
// one-worker engine, with the coordinator's engine keeping two jobs in
// flight.
const fabricWorkers = 2

// cluster is an in-process coordinator and its workers. Every round
// builds a fresh one, so no store or memo outlives it.
type cluster struct {
	coord    *fabric.Coordinator
	services []*httpService
	cancel   context.CancelFunc
}

// startCluster brings up the coordinator and its workers, installs the
// coordinator's engine as the experiment engine, and waits until both
// workers are alive. coordLog watches the coordinator's engine,
// workerLog both workers' engines.
func startCluster(coordLog, workerLog *sweepLog) (*cluster, error) {
	c := &cluster{coord: fabric.NewCoordinator(fabric.CoordinatorConfig{HeartbeatTimeout: 5 * time.Second})}
	cs, err := listen(c.coord.Handler())
	if err != nil {
		return nil, err
	}
	c.services = append(c.services, cs)
	eng := sweep.NewEngine(fabricWorkers)
	eng.SetBackend(c.coord.Backend())
	eng.SetRemote(c.coord)
	eng.SetObserver(coordLog.observe)
	experiment.SetEngine(eng)

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for k := 0; k < fabricWorkers; k++ {
		// The worker advertises its URL, so the listener comes first and
		// the handler binds late.
		wp := new(atomic.Pointer[fabric.Worker])
		ws, err := listen(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if w := wp.Load(); w != nil {
				w.Handler().ServeHTTP(rw, req)
				return
			}
			http.Error(rw, "worker not ready", http.StatusServiceUnavailable)
		}))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.services = append(c.services, ws)
		weng := sweep.NewEngine(1)
		store := fabric.NewStoreClient(cs.url, fabric.NewMemStore(), nil)
		weng.SetBackend(store)
		weng.SetObserver(workerLog.observe)
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID: fmt.Sprintf("w%d", k+1), CoordinatorURL: cs.url, AdvertiseURL: ws.url,
			HeartbeatEvery: 200 * time.Millisecond,
		}, weng, store)
		wp.Store(w)
		w.Start(ctx)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		alive := 0
		for _, p := range c.coord.Peers() {
			if p.Alive {
				alive++
			}
		}
		if alive == fabricWorkers {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("only %d of %d workers alive after 10s", alive, fabricWorkers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *cluster) stop() {
	if c.cancel != nil {
		c.cancel()
	}
	for _, s := range c.services {
		s.stop()
	}
}

// counters reads the coordinator's metrics exposition, summing each
// series over its labels except the dispatch kind.
func (c *cluster) counters() map[string]float64 {
	var b strings.Builder
	c.coord.WriteMetrics(&b)
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if !strings.HasPrefix(name, "smtserved_fabric_dispatch_total{") {
			if j := strings.IndexByte(name, '{'); j >= 0 {
				name = name[:j]
			}
		}
		out[name] += v
	}
	return out
}

func runFabric(r *run) error {
	var digest string
	err := r.loop(func(i int, traced bool) error {
		k := i
		if r.traced {
			k = i / 2 // an untraced and a traced round share each order
		}
		order := r.in.Fabric[k%len(r.in.Fabric)]
		d, ok, err := r.fabricRound(byNames(order), i, traced)
		if err != nil || !ok {
			return err
		}
		if digest == "" {
			digest = d
			r.notef("%d workloads, round 0 in seed order starting %v; output digest %s", len(order), order[:3], d[:16])
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

// fabricRound builds a fresh cluster, computes the SingleIPC references
// through it (set-up), then times Figure 9 over loads, in their order,
// through the coordinator's engine.
func (r *run) fabricRound(loads []workload.Workload, i int, traced bool) (digest string, ok bool, err error) {
	sl := r.spanLogFor(traced)
	job := fmt.Sprintf("round-%d", i)
	root := sl.open("round", job, 0)
	defer sl.close(root)

	coordLog, workerLog := newSweepLog(), newSweepLog()
	var c *cluster
	err = r.setup(func() error {
		var err error
		if c, err = startCluster(coordLog, workerLog); err != nil {
			return err
		}
		sp := sl.open("experiment.Singles", job, root)
		defer sl.close(sp)
		for _, w := range loads {
			experiment.Singles(r.cfg, w)
		}
		return nil
	})
	if c != nil {
		defer c.stop()
	}
	if err != nil {
		return "", false, fmt.Errorf("fabric set-up: %w", err)
	}
	before := c.counters()
	solo, workerSolo := coordLog.mark(), workerLog.mark()

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
		rows = experiment.Figure9(r.cfg, loads)
		return nil
	})
	wall := time.Since(start)
	after := c.counters()
	jobs, hits := coordLog.since(solo)
	r.attempted += len(jobs)
	fallback := after["smtserved_fabric_local_fallback_total"]
	failed := after["smtserved_fabric_dispatch_failed_total"]
	r.failed += int(fallback + failed)
	if fallback != 0 || failed != 0 {
		r.problemf("round %d: %v local fallbacks and %v failed dispatches, want none", i, fallback, failed)
	}
	if err != nil {
		r.attempted++
		r.failed++
		r.problemf("round %d: %v", i, err)
		return "", false, nil
	}
	if msg := checkRows(rows, loads, fig9.techniques); msg != "" {
		r.problemf("round %d: %s", i, msg)
	}
	if !traced {
		for _, j := range jobs {
			r.latency = append(r.latency, j.dur.Seconds())
		}
	} else {
		workerJobs, _ := workerLog.since(workerSolo)
		r.addFabric(sl, job, root, jobs, workerJobs, before, after)
		r.addSweep(jobs, hits, wall)
		r.layerAdd(fig9.gainMetric, experiment.Gains(rows, fig9.gainA, fig9.gainB)*100)
		r.addLearner(tele.sample.Load(), tele.tried.Load(), tele.accepted.Load(), tele.reverted.Load())
	}
	// Rounds run different orders, so the digest is taken over the rows
	// in workload-name order.
	sorted := slices.Clone(rows)
	slices.SortFunc(sorted, func(a, b experiment.CompareRow) int { return strings.Compare(a.Workload, b.Workload) })
	var text strings.Builder
	experiment.WriteCompare(&text, sorted)
	return digestOf(text.String()), true, nil
}

// addFabric reports the fabric layer of one traced round: dispatch
// placements, fallbacks, failures and store requests over the figure
// call (from the coordinator's metrics), and the median of each job's
// coordinator-observed time minus the worker engine's compute time for
// the same key. Worker compute spans nest under the coordinator's.
func (r *run) addFabric(sl *spanLog, job string, root int, jobs, workerJobs []sweepJob, before, after map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	for _, kind := range []string{"owner", "stolen", "affinity"} {
		r.layerAdd("fabric.dispatch_"+kind, delta(`smtserved_fabric_dispatch_total{kind="`+kind+`"}`))
	}
	r.layerAdd("fabric.local_fallback", delta("smtserved_fabric_local_fallback_total"))
	r.layerAdd("fabric.dispatch_failed", delta("smtserved_fabric_dispatch_failed_total"))
	r.layerAdd("fabric.store_requests", delta("smtserved_fabric_store_requests_total"))

	compute := map[string]sweepJob{}
	for _, w := range workerJobs {
		compute[w.key] = w
	}
	var overhead []float64
	for _, j := range jobs {
		id := sl.add("fabric.job."+j.family, job, root, j.end.Add(-j.dur), j.end)
		if w, ok := compute[j.key]; ok {
			sl.add("worker.compute."+w.family, job, id, w.end.Add(-w.dur), w.end)
			overhead = append(overhead, (j.dur - w.dur).Seconds())
		}
	}
	r.layerAdd("fabric.remote_overhead_s", median(overhead))
}
