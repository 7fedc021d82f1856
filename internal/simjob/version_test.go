package simjob

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestSpecVersionRoundTrip(t *testing.T) {
	s := Spec{Version: WireVersion, Workload: "art-mcf", Tech: "HILL-WIPC"}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"version":2`) {
		t.Fatalf("marshalled spec missing version: %s", b)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round-trip = %+v, want %+v", back, s)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("current-version spec rejected: %v", err)
	}
	// Version never enters the cache key: the same simulation at
	// different wire versions shares one entry.
	if s.Key() != (Spec{Workload: "art-mcf", Tech: "HILL-WIPC"}).Key() {
		t.Fatal("Version leaked into Spec.Key")
	}
}

func TestSpecVersionZeroOmitted(t *testing.T) {
	b, err := json.Marshal(Spec{Workload: "art-mcf", Tech: "ICOUNT"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "version") {
		t.Fatalf("zero version serialised: %s", b)
	}
}

func TestSpecUnknownVersionRejected(t *testing.T) {
	s := Spec{Version: WireVersion + 1, Workload: "art-mcf", Tech: "ICOUNT"}
	err := s.Validate()
	if err == nil {
		t.Fatal("future wire version accepted")
	}
	if !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
	if (Spec{Version: -1, Workload: "art-mcf", Tech: "ICOUNT"}).Validate() == nil {
		t.Fatal("negative wire version accepted")
	}
}

func TestSpecFromKeyRoundTrip(t *testing.T) {
	specs := []Spec{
		{Workload: "art-mcf", Tech: "HILL-WIPC"},
		{Workload: "art,mcf,gzip", Tech: "ICOUNT", Epochs: 7, EpochSize: 1024, Warmup: 1, Seed: 42},
		{Workload: "ammp-applu-art-mcf", Tech: "DCRA", Delta: 8},
	}
	for _, s := range specs {
		key := s.Key()
		back, ok, err := SpecFromKey(key)
		if err != nil || !ok {
			t.Fatalf("SpecFromKey(%q) = %v, %v", key, ok, err)
		}
		if back.Key() != key {
			t.Fatalf("rebuilt spec %+v keys to %q, want %q", back, back.Key(), key)
		}
		if back != s.Normalize() {
			t.Fatalf("SpecFromKey(%q) = %+v, want %+v", key, back, s.Normalize())
		}
	}
}

func TestSpecFromKeyForeignFamily(t *testing.T) {
	for _, key := range []string{
		"v1|hill|wl=art-mcf|metric=WIPC|es=1024|ep=3|wu=1",
		// An older schema's Result means something else: a version-1
		// baseline sampled SingleIPC.
		"v1|simjob|d=4|ep=3|es=1024|seed=0|tech=ICOUNT|wl=art-mcf|wu=1",
	} {
		if _, ok, err := SpecFromKey(key); ok || err != nil {
			t.Fatalf("SpecFromKey(%q): ok=%v err=%v, want false, nil", key, ok, err)
		}
	}
}

func TestSpecFromKeyRejectsBadKeys(t *testing.T) {
	prefix := fmt.Sprintf("v%d|simjob", schemaVersion)
	for _, key := range []string{
		prefix + "|wl=art-mcf", // missing fields
		prefix + "|wl=no-such-wl|tech=ICOUNT|ep=3|es=1024|wu=1|d=4|seed=0", // unknown workload
	} {
		if _, _, err := SpecFromKey(key); err == nil {
			t.Errorf("SpecFromKey(%q) accepted", key)
		}
	}
}
