package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// keyOwnedBy finds a key whose ring owner is id, so dispatch-path tests
// can force the first placement choice.
func keyOwnedBy(t *testing.T, c *Coordinator, id string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("v1|solo|app=probe-%d|cycles=1024", i)
		c.mu.Lock()
		owners := c.ring.Owners(key, 1)
		c.mu.Unlock()
		if len(owners) == 1 && owners[0] == id {
			return key
		}
	}
	t.Fatalf("no key owned by %s in 10000 probes", id)
	return ""
}

// TestFabricRedispatchAfterMissedHeartbeats is the worker-death unit
// test: a worker that stops heartbeating is reaped from the ring, and a
// job that would have been its lands on a surviving worker.
func TestFabricRedispatchAfterMissedHeartbeats(t *testing.T) {
	clock := &testClock{now: time.Unix(1_000_000, 0)}
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Second, Logf: t.Logf})
	c.now = clock.time

	survivor := newFakeWorker(t, json.RawMessage(`{"ok":true}`))
	c.admit("dead", "http://127.0.0.1:1", 0) // nothing listens there
	c.admit("live", survivor.srv.URL, 0)

	key := keyOwnedBy(t, c, "dead")

	// The dead worker misses its heartbeats; the survivor keeps beating.
	clock.advance(1500 * time.Millisecond)
	c.admit("live", survivor.srv.URL, 0)
	c.reap()

	c.mu.Lock()
	reaped, inRing := c.reapedTotal.Value(), c.ring.Has("dead")
	c.mu.Unlock()
	if reaped != 1 || inRing {
		t.Fatalf("after missed heartbeats: reaped=%d inRing=%v, want 1 and false", reaped, inRing)
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

	// The dead worker's next heartbeat readmits it.
	c.admit("dead", "http://127.0.0.1:1", 0)
	c.mu.Lock()
	back := c.ring.Has("dead")
	c.mu.Unlock()
	if !back {
		t.Fatal("re-heartbeating worker did not rejoin the ring")
	}
}

// TestFabricRedispatchOnConnectionFailure covers the faster path: the
// worker is still believed alive, but the dispatch connection fails, so
// the job re-dispatches immediately and the worker is marked dead
// without waiting for the liveness timeout.
func TestFabricRedispatchOnConnectionFailure(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	survivor := newFakeWorker(t, json.RawMessage(`7`))
	c.admit("dead", "http://127.0.0.1:1", 0)
	c.admit("live", survivor.srv.URL, 0)
	key := keyOwnedBy(t, c, "dead")

	raw, handled, err := c.Exec(context.Background(), key)
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
// key itself is bad; the coordinator must not retry it around the ring.
func TestFabricWorkerRejectionEndsDispatch(t *testing.T) {
	rejections := 0
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rejections++
		http.Error(w, "unknown key family", http.StatusNotFound)
	}))
	defer rejecting.Close()
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	other := newFakeWorker(t, json.RawMessage(`1`))
	c.admit("rejector", rejecting.URL, 0)
	c.admit("other", other.srv.URL, 0)
	key := keyOwnedBy(t, c, "rejector")

	raw, handled, err := c.Exec(context.Background(), key)
	if raw != nil || handled || err != nil {
		t.Fatalf("Exec = %s, %v, %v; want local fallback", raw, handled, err)
	}
	if rejections != 1 || len(other.served) != 0 {
		t.Fatalf("rejections=%d otherServed=%v; a deterministic rejection must not ring-walk",
			rejections, other.served)
	}
}

// TestFabricStealing: a deeply queued owner loses the job to the
// least-loaded worker.
func TestFabricStealing(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	c.admit("deep", "http://deep", 10)
	c.admit("idle", "http://idle", 0)
	key := keyOwnedBy(t, c, "deep")

	plan := c.plan(key)
	if len(plan) != 2 || plan[0].id != "idle" || plan[0].kind != "stolen" {
		t.Fatalf("plan with deep owner = %+v, want idle stolen first", plan)
	}

	// Equal load: the ring owner keeps the job.
	c.admit("deep", "http://deep", 1)
	plan = c.plan(key)
	if plan[0].id != "deep" || plan[0].kind != "owner" {
		t.Fatalf("plan with balanced load = %+v, want deep owner first", plan)
	}
}

// TestFabricControlPlane drives the HTTP control plane end to end:
// register, version skew, heartbeat liveness and load, the store-keys
// health count, and heartbeats from nodes that still send the retired
// gossip fields.
func TestFabricControlPlane(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	postRaw := func(path string, raw []byte, out any) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK && out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	post := func(path string, body, out any) int {
		t.Helper()
		raw, _ := json.Marshal(body)
		return postRaw(path, raw, out)
	}
	peer := func(id string) PeerStatus {
		t.Helper()
		for _, p := range c.Peers() {
			if p.ID == id {
				return p
			}
		}
		t.Fatalf("no peer %s in %+v", id, c.Peers())
		return PeerStatus{}
	}

	var reg RegisterResponse
	if code := post("/fabric/v1/register",
		RegisterRequest{Version: ProtocolVersion, ID: "w1", Addr: "http://w1"}, &reg); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	if reg.Version != ProtocolVersion {
		t.Fatalf("register response version = %d", reg.Version)
	}

	// Version skew is refused at the door.
	if code := post("/fabric/v1/register",
		RegisterRequest{Version: ProtocolVersion + 1, ID: "w2", Addr: "http://w2"}, nil); code != http.StatusBadRequest {
		t.Fatalf("future-version register: HTTP %d, want 400", code)
	}

	// A heartbeat refreshes liveness and the reported queue depth.
	var hb HeartbeatResponse
	if code := post("/fabric/v1/heartbeat",
		Heartbeat{Version: ProtocolVersion, ID: "w1", Addr: "http://w1", QueueDepth: 3}, &hb); code != http.StatusOK {
		t.Fatalf("heartbeat: HTTP %d", code)
	}
	if hb.Version != ProtocolVersion {
		t.Fatalf("heartbeat response version = %d", hb.Version)
	}
	if p := peer("w1"); !p.Alive || p.QueueDepth != 3 {
		t.Fatalf("after heartbeat w1 = %+v, want alive with queue depth 3", p)
	}

	// Results stored through the coordinator's backend are counted.
	if err := c.Backend().Put(context.Background(), "key-a", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if got := c.Health()["fabric_store_keys"]; got != uint64(1) {
		t.Fatalf("fabric_store_keys = %v, want 1", got)
	}

	// A heartbeat in the older wire format, gossip fields included, is
	// still admitted: decoders ignore the fields they no longer know.
	old := `{"version":1,"id":"w9","addr":"http://w9","queue_depth":0,"seq":7,"recent_keys":["k"]}`
	if code := postRaw("/fabric/v1/heartbeat", []byte(old), nil); code != http.StatusOK {
		t.Fatalf("older-format heartbeat: HTTP %d, want 200", code)
	}
	if p := peer("w9"); !p.Alive {
		t.Fatalf("older-format heartbeat left w9 = %+v, want alive", p)
	}
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
	for _, k := range []string{"owner", "stolen"} {
		if n := c.dispatches.With(k).Value(); n != 0 {
			t.Errorf("dispatch_total{kind=%q} = %d, want 0", k, n)
		}
	}
	if n := c.dispatchFailed.Value() + c.redispatched.Value(); n != 0 {
		t.Errorf("dispatchFailed+redispatched = %d, want 0", n)
	}
}
