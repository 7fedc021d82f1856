package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smthill/internal/serve"
	"smthill/internal/simjob"
)

// serveClients is the closed loop's client count: each submits a spec,
// follows its SSE stream to the terminal event, GETs the job, and only
// then takes the next spec, as scripts and the fabric do.
const serveClients = 2

// daemon is an in-process smtserved behind a loopback listener: one sim
// worker, the rate limiter off (a loopback client making three requests
// a job would hit the default 50 req/s limit at about 17 jobs/s), no
// tracer.
type daemon struct {
	srv    *serve.Server
	svc    *httpService
	base   string
	client *http.Client
}

func startDaemon() (*daemon, error) {
	srv, err := serve.New(serve.Config{Workers: 1, RatePerSec: -1})
	if err != nil {
		return nil, err
	}
	svc, err := listen(srv)
	if err != nil {
		_ = srv.Shutdown(context.Background()) // nothing was admitted yet
		return nil, err
	}
	d := &daemon{
		srv: srv, svc: svc, base: svc.url,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}},
	}
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	drain(resp)
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return d, nil
}

// stop drains the daemon, then closes its listener and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // every job has finished; a drain error changes nothing here
	d.svc.stop()
	d.client.CloseIdleConnections()
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// jobView is the part of the daemon's job JSON the benchmark reads.
type jobView struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	Source     string          `json:"source"`
	Result     json.RawMessage `json:"result"`
	Error      string          `json:"error"`
	EventsURL  string          `json:"events_url"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  time.Time       `json:"started_at"`
	FinishedAt time.Time       `json:"finished_at"`
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	code       int   // submit status
	err        error // transport or protocol failure
	view       jobView
	result     simjob.Result
	submitted  time.Time
	followed   time.Time // SSE stream ended
	end        time.Time // final GET returned
	events     int
	sample     int
	tried      int
	accepted   int
	reverted   int
	latencySec float64
}

// do runs one job through the public API: submit, follow, GET. It never
// retries: a refusal or error is recorded and returned.
func (d *daemon) do(spec simjob.Spec) (rec jobRecord) {
	start := time.Now()
	defer func() { rec.end = time.Now(); rec.latencySec = rec.end.Sub(start).Seconds() }()
	body, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	rec.code = resp.StatusCode
	if resp.StatusCode != http.StatusAccepted {
		drain(resp)
		return rec
	}
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	drain(resp)
	rec.submitted = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("decode submit reply: %w", err)
		return rec
	}
	if rec.err = d.follow(v.EventsURL, &rec); rec.err != nil {
		return rec
	}
	rec.followed = time.Now()
	resp, err = d.client.Get(d.base + "/v1/jobs/" + v.ID)
	if err != nil {
		rec.err = err
		return rec
	}
	err = json.NewDecoder(resp.Body).Decode(&rec.view)
	drain(resp)
	if err != nil {
		rec.err = fmt.Errorf("decode job: %w", err)
		return rec
	}
	if len(rec.view.Result) > 0 {
		if err := json.Unmarshal(rec.view.Result, &rec.result); err != nil {
			rec.err = fmt.Errorf("decode result: %w", err)
		}
	}
	return rec
}

// follow reads the job's SSE stream to its end (the daemon closes it at
// the terminal state), counting events and the learner's epochs and
// moves among them.
func (d *daemon) follow(path string, rec *jobRecord) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	name := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			rec.events++
		case strings.HasPrefix(line, "data: ") && (name == "epoch" || name == "move"):
			var ev struct{ Kind string }
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return fmt.Errorf("decode %s event: %w", name, err)
			}
			switch ev.Kind {
			case "sample":
				rec.sample++
			case "tried":
				rec.tried++
			case "accepted":
				rec.accepted++
			case "reverted":
				rec.reverted++
			}
		}
	}
	return sc.Err()
}

func runServe(r *run) error {
	serveRun := map[int][]float64{} // spec index -> daemon run seconds, traced rounds
	var digest string
	err := r.loop(func(i int, traced bool) error {
		d, err := r.serveRound(i, traced, serveRun)
		switch {
		case err != nil:
			return err
		case digest == "":
			digest = d
			r.notef("%d jobs a round; output digest %s", len(r.in.Serve), d[:16])
		case d != digest:
			r.problemf("round %d output digest %s differs from round 0's %s", i, d[:16], digest[:16])
		}
		return nil
	})
	if err != nil || !r.traced {
		return err
	}
	r.probeSimjob(serveRun)
	r.probePipeline()
	return nil
}

// serveRound brings up a fresh daemon (set-up: listener, /healthz, one
// warm-up job per class), then times the two closed-loop clients over
// the round's spec sequence. It returns the digest of the round's
// results.
func (r *run) serveRound(i int, traced bool, serveRun map[int][]float64) (string, error) {
	sl := r.spanLogFor(traced)
	round := fmt.Sprintf("round-%d", i)
	root := sl.open("round", round, 0)
	defer sl.close(root)

	var d *daemon
	err := r.setup(func() error {
		var err error
		if d, err = startDaemon(); err != nil {
			return err
		}
		for _, w := range r.in.ServeWarm {
			if rec := d.do(w.Spec); rec.err != nil || rec.view.State != "done" {
				return fmt.Errorf("warm-up %s job: state %q, status %d, err %v", w.Class, rec.view.State, rec.code, rec.err)
			}
		}
		return nil
	})
	if d != nil {
		defer d.stop()
	}
	if err != nil {
		return "", fmt.Errorf("serve set-up: %w", err)
	}

	specs := r.in.Serve
	recs := make([]jobRecord, len(specs))
	done := make([]chan struct{}, len(specs))
	for k := range done {
		done[k] = make(chan struct{})
	}
	var next atomic.Int64
	err = r.timed(traced, func() error {
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(specs) {
						return
					}
					if of := specs[k].Of; of >= 0 {
						<-done[of] // a resubmission follows its original
					}
					recs[k] = d.do(specs[k].Spec)
					close(done[k])
				}
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return "", err
	}
	digest := r.checkServe(i, specs, recs)

	if !traced {
		for _, rec := range recs {
			r.latency = append(r.latency, rec.latencySec)
		}
		return digest, nil
	}
	var queue, runS, httpS, multi []float64
	var events, memo, rejected, migrations, computed int
	var sample, tried, accepted, reverted int64
	for k, rec := range recs {
		job := fmt.Sprintf("%s/job-%d", round, k)
		start := rec.end.Add(-time.Duration(rec.latencySec * float64(time.Second)))
		id := sl.add("client.job", job, root, start, rec.end)
		if rec.code == http.StatusTooManyRequests || rec.code == http.StatusServiceUnavailable {
			rejected++
		}
		if rec.err != nil || rec.view.State == "" {
			continue
		}
		v := rec.view
		sl.add("http.submit", job, id, start, rec.submitted)
		sl.add("sse.follow", job, id, rec.submitted, rec.followed)
		sl.add("http.get", job, id, rec.followed, rec.end)
		sl.add("serve.queue", job, id, v.CreatedAt, v.StartedAt)
		sl.add("serve.run", job, id, v.StartedAt, v.FinishedAt)
		queue = append(queue, v.StartedAt.Sub(v.CreatedAt).Seconds())
		httpS = append(httpS, rec.latencySec-v.FinishedAt.Sub(v.CreatedAt).Seconds())
		events += rec.events
		sample, tried = sample+int64(rec.sample), tried+int64(rec.tried)
		accepted, reverted = accepted+int64(rec.accepted), reverted+int64(rec.reverted)
		if v.Source == "memo" {
			memo++
			continue
		}
		computed++
		run := v.FinishedAt.Sub(v.StartedAt).Seconds()
		runS = append(runS, run)
		serveRun[k] = append(serveRun[k], run)
		if specs[k].Class == classMulticore {
			multi = append(multi, run)
			migrations += int(rec.result.Migrations)
		}
	}
	r.layerAdd("serve.queue_wait_s", median(queue))
	r.layerAdd("serve.run_s", median(runS))
	r.layerAdd("serve.http_s", median(httpS))
	r.layerAdd("serve.sse_events_per_job", float64(events)/float64(len(recs)))
	r.layerAdd("serve.memo_hit_ratio", float64(memo)/float64(len(recs)))
	r.layerAdd("serve.rejected", float64(rejected))
	r.layerAdd("sweep.jobs", float64(computed))
	r.layerAdd("sweep.memo_hits", float64(memo))
	r.layerAdd("multicore.job_s", median(multi))
	r.layerAdd("multicore.migrations", float64(migrations))
	r.addLearner(sample, tried, accepted, reverted)
	return digest, nil
}

// checkServe counts the round's jobs and checks them: every job is
// done and its result echoes its spec; a fresh spec is computed, and a
// resubmission is served from the memo, byte-identical to its original.
// It returns the digest of every result in spec order.
func (r *run) checkServe(i int, specs []serveSpec, recs []jobRecord) string {
	var all bytes.Buffer
	for k, rec := range recs {
		r.attempted++
		s, v := specs[k], rec.view
		_ = json.Compact(&all, v.Result) // a missing result fails below; the digest then differs too
		all.WriteByte('\n')
		var msg string
		switch {
		case rec.err != nil:
			msg = rec.err.Error()
		case rec.code != http.StatusAccepted:
			msg = fmt.Sprintf("submit refused with status %d", rec.code)
		case v.State != "done":
			msg = fmt.Sprintf("ended %s: %s", v.State, v.Error)
		}
		if msg != "" {
			r.failed++
			r.problemf("round %d job %d (%s %s): %s", i, k, s.Class, s.Spec.Key(), msg)
			continue
		}
		if err := echoes(rec.result, s.Spec); err != nil {
			r.problemf("round %d job %d: %v", i, k, err)
		}
		if s.Of < 0 {
			if v.Source != "run" {
				r.problemf("round %d job %d: fresh spec served from %q", i, k, v.Source)
			}
			continue
		}
		if v.Source != "memo" {
			r.problemf("round %d job %d: resubmission of job %d served from %q, want memo", i, k, s.Of, v.Source)
		}
		if !sameJSON(v.Result, recs[s.Of].view.Result) {
			r.problemf("round %d job %d: resubmission result differs from job %d's", i, k, s.Of)
		}
	}
	return digestOf(all.String())
}

// echoes reports whether res describes the run spec asked for.
func echoes(res simjob.Result, spec simjob.Spec) error {
	s := spec.Normalize()
	cores := 0
	if s.Cores > 1 {
		cores = s.Cores
	}
	if res.Workload != s.Workload || res.Tech != s.Tech || res.Epochs != s.Epochs ||
		res.EpochSize != s.EpochSize || res.Cores != cores || len(res.Threads) == 0 {
		return fmt.Errorf("result %s/%s %dx%d cores %d does not echo spec %s",
			res.Workload, res.Tech, res.Epochs, res.EpochSize, res.Cores, s.Key())
	}
	return nil
}

// sameJSON compares two JSON values byte for byte after removing
// insignificant whitespace.
func sameJSON(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// probeSimjob runs the round's computed specs directly through
// simjob.Run with no telemetry sink, and times the admission-side spec
// handling (Normalize, Validate, Key). Comparing the direct run times
// with the daemon's, spec for spec, prices what the daemon adds around
// a simulation: the always-on recorder, the SSE bridge and the sweep
// batch.
func (r *run) probeSimjob(serveRun map[int][]float64) {
	sl := r.spans
	root := sl.open("probe.simjob", "probe", 0)
	defer sl.close(root)
	var direct, daemon float64
	for k, s := range r.in.Serve {
		t := time.Now()
		n := s.Spec.Normalize()
		err := n.Validate()
		_ = n.Key()
		r.layerAdd("simjob.validate_us", float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			r.problemf("spec %d does not validate: %v", k, err)
			continue
		}
		if s.Of >= 0 || len(serveRun[k]) == 0 {
			continue
		}
		t = time.Now()
		_, err = simjob.Run(context.Background(), s.Spec, nil)
		sec := time.Since(t).Seconds()
		sl.add("simjob.Run", fmt.Sprintf("probe/job-%d", k), root, t, time.Now())
		if err != nil {
			r.problemf("direct run of spec %d: %v", k, err)
			continue
		}
		r.layerAdd("simjob.run_s", sec)
		direct += sec
		daemon += median(serveRun[k])
	}
	if direct > 0 {
		r.layerAdd("serve.recorder_overhead_pct", (daemon/direct-1)*100)
	}
}
