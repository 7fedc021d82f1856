package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"testing"
)

func TestStoreServerGet(t *testing.T) {
	backend := NewMemStore()
	srv := httptest.NewServer(NewStoreServer(backend))
	defer srv.Close()
	key := "v1|hill|wl=art-mcf"
	url := srv.URL + "?key=" + "v1%7Chill%7Cwl%3Dart-mcf"

	// Miss first.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before the backend holds the key: %d, want 404", resp.StatusCode)
	}

	// GET returns the exact bytes the backend stored.
	body := []byte(`{"ipc":[1.25,0.5]}`)
	if err := backend.Put(context.Background(), key, body); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("GET = %d %q, want 200 %q", resp.StatusCode, got, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET Content-Type = %q, want application/json", ct)
	}
}

// TestStoreServerRefusesWrites: the store accepts no write. A PUT of a
// forged result under a stored key gets 405, as does every other method
// but GET, and the key keeps serving the original bytes.
func TestStoreServerRefusesWrites(t *testing.T) {
	backend := NewMemStore()
	key := "v3|sim|tech=DCRA|wl=art-mcf"
	orig := json.RawMessage(`{"total_ipc":0.571}`)
	if err := backend.Put(context.Background(), key, orig); err != nil {
		t.Fatal(err)
	}
	srv := storeTestServer(backend)
	defer srv.Close()
	url := srv.URL + "/fabric/v1/store?key=" + neturl.QueryEscape(key)

	for _, method := range []string{http.MethodPut, http.MethodPost, http.MethodDelete, http.MethodPatch, http.MethodHead} {
		req, _ := http.NewRequest(method, url, strings.NewReader(`{"total_ipc":99}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet {
			t.Errorf("%s: HTTP %d Allow %q, want 405 and Allow GET", method, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
	c := NewStoreClient(srv.URL, nil, nil)
	if got, ok := c.Get(context.Background(), key); !ok || !bytes.Equal(got, orig) {
		t.Fatalf("after write attempts the store serves %q, %v; want %q", got, ok, orig)
	}
}

func TestStoreServerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(NewStoreServer(NewMemStore()))
	defer srv.Close()

	resp, err := http.Get(srv.URL) // no key
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET without key: %d, want 400", resp.StatusCode)
	}
}

// storeTestServer mounts a StoreServer at the path StoreClient dials,
// mirroring the coordinator's mux topology.
func storeTestServer(backend *MemStore) *httptest.Server {
	mux := http.NewServeMux()
	mux.Handle("/fabric/v1/store", NewStoreServer(backend))
	return httptest.NewServer(mux)
}

func TestStoreClientReadThrough(t *testing.T) {
	remote := NewMemStore()
	srv := storeTestServer(remote)
	defer srv.Close()
	local := NewMemStore()
	c := NewStoreClient(srv.URL, local, nil)

	key := "v1|solo|app=art|cycles=1024"
	if _, ok := c.Get(context.Background(), key); ok {
		t.Fatal("Get on empty store succeeded")
	}

	want := json.RawMessage(`{"v":1}`)
	if err := remote.Put(context.Background(), key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(context.Background(), key)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get after remote put = %q, %v", got, ok)
	}
	// The remote hit was written back locally: a second Get must not
	// need the network.
	srv.Close()
	got, ok = c.Get(context.Background(), key)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get after server death = %q, %v; want local copy", got, ok)
	}
	localHits, remoteHits := c.outcomes.With("local_hit").Value(), c.outcomes.With("remote_hit").Value()
	if localHits != 1 || remoteHits != 1 {
		t.Fatalf("hit counters local=%d remote=%d, want 1 and 1", localHits, remoteHits)
	}
}

// TestStoreClientPutStaysLocal: Put fills the local tier and sends
// nothing to the store, with or without a local tier.
func TestStoreClientPutStaysLocal(t *testing.T) {
	remote := NewMemStore()
	srv := storeTestServer(remote)
	defer srv.Close()
	local := NewMemStore()
	c := NewStoreClient(srv.URL, local, nil)

	key, raw := "k1", json.RawMessage(`[1,2,3]`)
	if err := c.Put(context.Background(), key, raw); err != nil {
		t.Fatal(err)
	}
	if got, ok := local.Get(context.Background(), key); !ok || !bytes.Equal(got, raw) {
		t.Fatalf("local after Put = %q, %v", got, ok)
	}
	if got, ok := c.Get(context.Background(), key); !ok || !bytes.Equal(got, raw) {
		t.Fatalf("Get after Put = %q, %v; want the local copy", got, ok)
	}
	if err := NewStoreClient(srv.URL, nil, nil).Put(context.Background(), "k2", raw); err != nil {
		t.Fatalf("Put without a local tier: %v", err)
	}
	if n := remote.Len(); n != 0 {
		t.Fatalf("store holds %d keys after client Puts, want 0", n)
	}
}

func TestStoreClientOfflineDegradesToLocal(t *testing.T) {
	local := NewMemStore()
	c := NewStoreClient("http://127.0.0.1:1", local, nil) // nothing listens
	key, raw := "k", json.RawMessage(`true`)
	if err := c.Put(context.Background(), key, raw); err != nil {
		t.Fatalf("local Put with the store down: %v", err)
	}
	if got, ok := c.Get(context.Background(), key); !ok || !bytes.Equal(got, raw) {
		t.Fatalf("local Get after offline Put = %q, %v", got, ok)
	}
}
