package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smthill/internal/sweep"
)

// fakeWorker is a canned exec endpoint: it answers every key with a
// fixed result and records what it served.
type fakeWorker struct {
	srv    *httptest.Server
	result json.RawMessage
	served []string
}

func newFakeWorker(t *testing.T, result json.RawMessage) *fakeWorker {
	t.Helper()
	f := &fakeWorker{result: result}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ExecRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.served = append(f.served, req.Key)
		writeProtoJSON(w, ExecResponse{Version: ProtocolVersion, Key: req.Key, Result: f.result})
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// testClock is an injectable wall clock for liveness tests (advanced
// only between coordinator calls, never concurrently).
type testClock struct{ now time.Time }

func (c *testClock) time() time.Time         { return c.now }
func (c *testClock) advance(d time.Duration) { c.now = c.now.Add(d) }

// TestFabricRedispatchAfterMissedHeartbeats is the worker-death unit
// test: a worker that stops heartbeating is reaped, and a job that
// would have been its (the tie goes to the lower id, "dead") lands on
// a surviving worker.
func TestFabricRedispatchAfterMissedHeartbeats(t *testing.T) {
	clock := &testClock{now: time.Unix(1_000_000, 0)}
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Second, Logf: t.Logf})
	c.now = clock.time

	survivor := newFakeWorker(t, json.RawMessage(`{"ok":true}`))
	c.admit("dead", "http://127.0.0.1:1") // nothing listens there
	c.admit("live", survivor.srv.URL)
	key := "v1|solo|app=probe|cycles=1024"

	// The dead worker misses its heartbeats; the survivor keeps beating.
	clock.advance(1500 * time.Millisecond)
	c.admit("live", survivor.srv.URL)
	c.reap()

	c.mu.Lock()
	reaped, alive := c.reapedTotal.Value(), c.members["dead"].alive
	c.mu.Unlock()
	if reaped != 1 || alive {
		t.Fatalf("after missed heartbeats: reaped=%d alive=%v, want 1 and false", reaped, alive)
	}

	raw, handled, err := c.Exec(context.Background(), key)
	if err != nil || !handled {
		t.Fatalf("Exec after reap: handled=%v err=%v", handled, err)
	}
	if !bytes.Equal(raw, []byte(`{"ok":true}`)) {
		t.Fatalf("Exec result = %s", raw)
	}
	if len(survivor.served) != 1 || survivor.served[0] != key {
		t.Fatalf("survivor served %v, want [%s]", survivor.served, key)
	}
	if n := c.redispatched.Value(); n != 0 {
		t.Fatalf("redispatched = %d, want 0: a reaped worker is never picked", n)
	}

	// The dead worker's next heartbeat readmits it.
	c.admit("dead", "http://127.0.0.1:1")
	c.mu.Lock()
	back := c.members["dead"].alive
	c.mu.Unlock()
	if !back {
		t.Fatal("re-heartbeating worker was not readmitted")
	}
}

// TestFabricRedispatchOnConnectionFailure covers the faster path: the
// worker is still believed alive, but the dispatch connection fails, so
// the job re-dispatches immediately and the worker is marked dead
// without waiting for the liveness timeout. "dead" wins the tie, so it
// is tried first.
func TestFabricRedispatchOnConnectionFailure(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	survivor := newFakeWorker(t, json.RawMessage(`7`))
	c.admit("dead", "http://127.0.0.1:1")
	c.admit("live", survivor.srv.URL)

	raw, handled, err := c.Exec(context.Background(), "v1|solo|app=probe|cycles=1024")
	if err != nil || !handled || !bytes.Equal(raw, []byte(`7`)) {
		t.Fatalf("Exec = %s, %v, %v", raw, handled, err)
	}
	c.mu.Lock()
	redispatched, deadAlive := c.redispatched.Value(), c.members["dead"].alive
	c.mu.Unlock()
	if redispatched != 1 {
		t.Fatalf("redispatched = %d, want 1", redispatched)
	}
	if deadAlive {
		t.Fatal("unreachable worker still marked alive")
	}
}

// TestFabricExecDeclinesWithNoWorkers: an empty fabric falls back to
// local computation, never errors.
func TestFabricExecDeclinesWithNoWorkers(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	raw, handled, err := c.Exec(context.Background(), "v1|solo|app=art|cycles=1024")
	if raw != nil || handled || err != nil {
		t.Fatalf("Exec on empty fabric = %s, %v, %v; want declined", raw, handled, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.localFallback.Value() != 1 {
		t.Fatalf("localFallback = %d, want 1", c.localFallback.Value())
	}
}

// TestFabricWorkerRejectionEndsDispatch: a 4xx from a worker means the
// key itself is bad; the coordinator must not retry it on another
// worker. "rejector" wins the tie with "spare", so it is tried first.
func TestFabricWorkerRejectionEndsDispatch(t *testing.T) {
	rejections := 0
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rejections++
		http.Error(w, "unknown key family", http.StatusNotFound)
	}))
	defer rejecting.Close()
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	spare := newFakeWorker(t, json.RawMessage(`1`))
	c.admit("rejector", rejecting.URL)
	c.admit("spare", spare.srv.URL)

	raw, handled, err := c.Exec(context.Background(), "v1|solo|app=probe|cycles=1024")
	if raw != nil || handled || err != nil {
		t.Fatalf("Exec = %s, %v, %v; want local fallback", raw, handled, err)
	}
	if rejections != 1 || len(spare.served) != 0 {
		t.Fatalf("rejections=%d spareServed=%v; a deterministic rejection must not be retried",
			rejections, spare.served)
	}
}

// gateWorker is an exec endpoint that holds every request until the
// test releases it with the status to answer, so a test can observe
// placement while dispatches are outstanding.
type gateWorker struct {
	srv     *httptest.Server
	arrived chan string   // the key of each request, as it arrives
	release chan int      // the status for one held request
	stop    chan struct{} // closed at cleanup, freeing held requests
}

func newGateWorker(t *testing.T) *gateWorker {
	t.Helper()
	g := &gateWorker{arrived: make(chan string, 4), release: make(chan int), stop: make(chan struct{})}
	g.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ExecRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g.arrived <- req.Key
		select {
		case code := <-g.release:
			if code != http.StatusOK {
				http.Error(w, "rejected", code)
				return
			}
			writeProtoJSON(w, ExecResponse{Version: ProtocolVersion, Key: req.Key, Result: json.RawMessage(`1`)})
		case <-r.Context().Done():
		case <-g.stop:
		}
	}))
	t.Cleanup(g.srv.Close)
	t.Cleanup(func() { close(g.stop) }) // runs first, so Close never waits on a held request
	return g
}

// next returns the key of the next request g receives, failing the
// test when none arrives.
func (g *gateWorker) next(t *testing.T) string {
	t.Helper()
	select {
	case key := <-g.arrived:
		return key
	case <-time.After(10 * time.Second):
		t.Fatal("no exec request arrived")
		return ""
	}
}

// execResult is one Exec call's outcome, for calls run off the test
// goroutine.
type execResult struct {
	raw     json.RawMessage
	handled bool
	err     error
}

func goExec(ctx context.Context, c *Coordinator, key string) <-chan execResult {
	ch := make(chan execResult, 1)
	go func() {
		raw, handled, err := c.Exec(ctx, key)
		ch <- execResult{raw, handled, err}
	}()
	return ch
}

// inflight reads every worker's in-flight count from Peers.
func inflight(c *Coordinator) map[string]int {
	out := map[string]int{}
	for _, p := range c.Peers() {
		out[p.ID] = p.Inflight
	}
	return out
}

// TestFabricPlacementLeastInFlight pins placement: a job goes to the
// live worker with the fewest dispatches outstanding, a tie goes to the
// lower id, and every return path of Exec (success, re-dispatch after a
// transport failure, a 4xx rejection, a cancelled context) releases its
// claim.
func TestFabricPlacementLeastInFlight(t *testing.T) {
	ctx := context.Background()
	wantIdle := func(t *testing.T, c *Coordinator) {
		t.Helper()
		for id, n := range inflight(c) {
			if n != 0 {
				t.Errorf("worker %s has %d in flight after Exec returned, want 0", id, n)
			}
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
		a, b := newGateWorker(t), newGateWorker(t)
		c.admit("b", b.srv.URL)
		c.admit("a", a.srv.URL)

		// Both idle: the tie goes to the lower id.
		first := goExec(ctx, c, "k1")
		if got := a.next(t); got != "k1" {
			t.Fatalf("a received %q, want k1", got)
		}
		if got := inflight(c); got["a"] != 1 || got["b"] != 0 {
			t.Fatalf("in flight after one dispatch = %v, want a:1 b:0", got)
		}
		// a is busy, so the next job goes to b.
		second := goExec(ctx, c, "k2")
		if got := b.next(t); got != "k2" {
			t.Fatalf("b received %q, want k2", got)
		}
		a.release <- http.StatusOK
		b.release <- http.StatusOK
		for _, ch := range []<-chan execResult{first, second} {
			if r := <-ch; !r.handled || r.err != nil || string(r.raw) != "1" {
				t.Fatalf("Exec = %+v, want handled result 1", r)
			}
		}
		wantIdle(t, c)
		if n := c.dispatches.Value(); n != 2 {
			t.Fatalf("dispatches = %d, want 2", n)
		}
	})

	t.Run("redispatch", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
		b := newGateWorker(t)
		c.admit("a", "http://127.0.0.1:1") // wins the tie; nothing listens
		c.admit("b", b.srv.URL)
		done := goExec(ctx, c, "k")
		b.next(t)
		if got := inflight(c); got["a"] != 0 || got["b"] != 1 {
			t.Fatalf("in flight during the re-dispatch = %v, want a:0 b:1", got)
		}
		b.release <- http.StatusOK
		if r := <-done; !r.handled || r.err != nil {
			t.Fatalf("Exec = %+v, want handled", r)
		}
		wantIdle(t, c)
		if n := c.redispatched.Value(); n != 1 {
			t.Fatalf("redispatched = %d, want 1", n)
		}
	})

	t.Run("rejected", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
		a := newGateWorker(t)
		c.admit("a", a.srv.URL)
		done := goExec(ctx, c, "k")
		a.next(t)
		a.release <- http.StatusNotFound
		if r := <-done; r.handled || r.err != nil {
			t.Fatalf("Exec = %+v, want declined to the local engine", r)
		}
		wantIdle(t, c)
	})

	t.Run("cancelled", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
		a := newGateWorker(t)
		c.admit("a", a.srv.URL)
		cctx, cancel := context.WithCancel(ctx)
		done := goExec(cctx, c, "k")
		a.next(t)
		if got := inflight(c); got["a"] != 1 {
			t.Fatalf("in flight before cancel = %v, want a:1", got)
		}
		cancel()
		if r := <-done; r.handled {
			t.Fatalf("Exec = %+v, want declined after cancel", r)
		}
		wantIdle(t, c)
	})
}

// TestFabricControlPlane drives the HTTP control plane end to end: a
// heartbeat alone admits a worker, a protocol-1 register body is
// served as a heartbeat, version skew is refused on both routes, the
// store-keys health count, and heartbeats from nodes that still send
// the retired queue-depth and gossip fields. Bodies are raw JSON, so
// the test pins the wire format rather than the Go types.
func TestFabricControlPlane(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(path, body string) (int, HeartbeatResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out HeartbeatResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}
	join := func(path, body, id string) {
		t.Helper()
		code, resp := post(path, body)
		if code != http.StatusOK || resp.Version != ProtocolVersion {
			t.Fatalf("%s %s: HTTP %d, version %d; want 200 and version %d",
				path, body, code, resp.Version, ProtocolVersion)
		}
		p, ok := peer(c, id)
		if !ok || !p.Alive || p.Inflight != 0 {
			t.Fatalf("after %s %s: %s = %+v (listed %v), want alive with nothing in flight",
				path, body, id, p, ok)
		}
	}

	// A heartbeat alone admits a worker the coordinator has never seen.
	join("/fabric/v1/heartbeat", `{"version":1,"id":"w1","addr":"http://w1"}`, "w1")

	// A protocol-1 worker that still registers first is admitted too.
	join("/fabric/v1/register", `{"version":1,"id":"w2","addr":"http://w2"}`, "w2")

	// Version skew is refused at the door on both routes.
	for _, path := range []string{"/fabric/v1/heartbeat", "/fabric/v1/register"} {
		if code, _ := post(path, `{"version":2,"id":"w3","addr":"http://w3"}`); code != http.StatusBadRequest {
			t.Fatalf("future-version %s: HTTP %d, want 400", path, code)
		}
	}
	if p, ok := peer(c, "w3"); ok {
		t.Fatalf("future-version worker was admitted: %+v", p)
	}

	// Results stored through the coordinator's backend are counted.
	if err := c.Backend().Put(context.Background(), "key-a", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if got := c.Health()["fabric_store_keys"]; got != uint64(1) {
		t.Fatalf("fabric_store_keys = %v, want 1", got)
	}

	// A heartbeat in the older wire format, queue depth and gossip fields
	// included, is still admitted: decoders ignore the fields they no
	// longer know.
	join("/fabric/v1/heartbeat",
		`{"version":1,"id":"w9","addr":"http://w9","queue_depth":5,"seq":7,"recent_keys":["k"]}`, "w9")
}

// peer returns the coordinator's view of worker id.
func peer(c *Coordinator, id string) (PeerStatus, bool) {
	for _, p := range c.Peers() {
		if p.ID == id {
			return p, true
		}
	}
	return PeerStatus{}, false
}

// TestFabricWorkerFirstBeatIsImmediate: Start sends the first heartbeat
// at once rather than after one HeartbeatEvery, so a worker is live
// as soon as it starts, however long its beat interval.
func TestFabricWorkerFirstBeatIsImmediate(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	w := NewWorker(WorkerConfig{
		ID: "w1", CoordinatorURL: srv.URL, AdvertiseURL: "http://w1",
		HeartbeatEvery: time.Hour, Logf: t.Logf,
	}, sweep.NewEngine(1), nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.Start(ctx)
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if p, ok := peer(c, "w1"); ok && p.Alive {
			return
		}
	}
	t.Fatalf("worker not alive 2s after Start (peers: %+v)", c.Peers())
}

// TestFabricStoredKeyNeverDispatched pins the engine ordering the
// coordinator relies on: memo and store are consulted before Exec, so a
// key already in the coordinator's store is served from it and never
// placed on a worker.
func TestFabricStoredKeyNeverDispatched(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	eng := sweep.NewEngine(1)
	eng.SetBackend(c.Backend())
	eng.SetRemote(c)

	key := "v1|stored|k=1"
	stored := json.RawMessage(`{"ipc":[1.25,0.5]}`)
	if err := c.Backend().Put(context.Background(), key, stored); err != nil {
		t.Fatal(err)
	}
	jobs := []sweep.Job[json.RawMessage]{{
		Key: key,
		// The engine may call Run off the test goroutine, where t.Fatal
		// must not be used; an error fails the sweep instead.
		Run: func(context.Context) (json.RawMessage, error) {
			t.Error("stored key was executed")
			return nil, errors.New("stored key was executed")
		},
	}}
	res, err := sweep.Run(context.Background(), eng, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res[key], stored) {
		t.Fatalf("result = %s, want stored %s", res[key], stored)
	}
	if n := c.localFallback.Value(); n != 0 {
		t.Errorf("localFallback = %d, want 0 (Exec was called)", n)
	}
	if n := c.dispatches.Value() + c.dispatchFailed.Value() + c.redispatched.Value(); n != 0 {
		t.Errorf("dispatches+dispatchFailed+redispatched = %d, want 0", n)
	}
}
