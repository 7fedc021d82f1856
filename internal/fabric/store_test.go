package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestStoreServerGetPutETag(t *testing.T) {
	srv := httptest.NewServer(NewStoreServer(NewMemStore()))
	defer srv.Close()
	url := srv.URL + "?key=" + "v1%7Chill%7Cwl%3Dart-mcf"

	// Miss first.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before PUT: %d, want 404", resp.StatusCode)
	}

	// PUT stores and returns the content ETag.
	body := []byte(`{"ipc":[1.25,0.5]}`)
	req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: %d, want 204", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag != etagFor(body) {
		t.Fatalf("PUT ETag = %q, want %q", etag, etagFor(body))
	}

	// GET returns the exact bytes and the same ETag.
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("GET = %d %q, want 200 %q", resp.StatusCode, got, body)
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("GET ETag = %q, want %q", resp.Header.Get("ETag"), etag)
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

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"?key=k", strings.NewReader("not json"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT invalid JSON: %d, want 400", resp.StatusCode)
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

func TestStoreClientPutWritesThrough(t *testing.T) {
	remote := NewMemStore()
	srv := storeTestServer(remote)
	defer srv.Close()
	local := NewMemStore()
	c := NewStoreClient(srv.URL, local, nil)

	key, raw := "k1", json.RawMessage(`[1,2,3]`)
	if err := c.Put(context.Background(), key, raw); err != nil {
		t.Fatal(err)
	}
	if got, ok := remote.Get(context.Background(), key); !ok || !bytes.Equal(got, raw) {
		t.Fatalf("remote after Put = %q, %v", got, ok)
	}
	if got, ok := local.Get(context.Background(), key); !ok || !bytes.Equal(got, raw) {
		t.Fatalf("local after Put = %q, %v", got, ok)
	}
}

func TestStoreClientOfflineDegradesToLocal(t *testing.T) {
	local := NewMemStore()
	c := NewStoreClient("http://127.0.0.1:1", local, nil) // nothing listens
	key, raw := "k", json.RawMessage(`true`)
	if err := c.Put(context.Background(), key, raw); err == nil {
		t.Fatal("Put against a dead store reported success")
	}
	if got, ok := c.Get(context.Background(), key); !ok || !bytes.Equal(got, raw) {
		t.Fatalf("local Get after offline Put = %q, %v", got, ok)
	}
}
