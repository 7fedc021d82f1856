package simjob

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestMulticoreSpecValidation(t *testing.T) {
	valid := Spec{Workload: "art,mcf,fma3d,gcc", Tech: "HILL-WIPC", Cores: 2}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid multicore spec rejected: %v", err)
	}
	cases := []struct {
		name string
		s    Spec
		want string
	}{
		{"negative cores", Spec{Workload: "art-mcf", Tech: "ICOUNT", Cores: -1}, "cores"},
		{"too many cores", Spec{Workload: "art-mcf", Tech: "ICOUNT", Cores: MaxCores + 1}, "cores"},
		{"thread count mismatch", Spec{Workload: "art-mcf", Tech: "ICOUNT", Cores: 2}, "applications"},
		{"unknown pairing", Spec{Workload: "art,mcf,fma3d,gcc", Cores: 2, Pairing: "sticky"}, "pairing"},
		{"pairing without cores", Spec{Workload: "art-mcf", Tech: "ICOUNT", Pairing: "random"}, "cores > 1"},
		{"phase tech on multicore", Spec{Workload: "art,mcf,fma3d,gcc", Tech: "HILL-PHASE", Cores: 2}, "single-core"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestMulticoreOldWireVersionsAccepted mirrors the PR-6 wire-version
// contract for the version-2 fields: every version up to the current
// one validates, anything newer is refused.
func TestMulticoreOldWireVersionsAccepted(t *testing.T) {
	for v := 0; v <= WireVersion; v++ {
		s := Spec{Version: v, Workload: "art,mcf,fma3d,gcc", Cores: 2}
		if err := s.Validate(); err != nil {
			t.Errorf("wire version %d rejected: %v", v, err)
		}
	}
	s := Spec{Version: WireVersion + 1, Workload: "art,mcf,fma3d,gcc", Cores: 2}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("future wire version: err = %v", err)
	}
}

func TestMulticoreKeyRoundTrip(t *testing.T) {
	specs := []Spec{
		{Workload: "art,mcf,fma3d,gcc", Tech: "HILL-WIPC", Cores: 2},
		{Workload: "art,mcf,fma3d,gcc", Cores: 2, Pairing: "stall-pred", Epochs: 7, Seed: 3},
		{Workload: "art,mcf,fma3d,gcc,gzip,twolf,bzip2,mesa", Tech: "ICOUNT", Cores: 4, Pairing: "random"},
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

// TestSingleCoreKeyUnchanged pins cache compatibility: single-core
// specs key exactly as they did before the multicore fields existed, so
// no pre-existing sweep cache entry is orphaned.
func TestSingleCoreKeyUnchanged(t *testing.T) {
	key := Spec{Workload: "art-mcf", Tech: "HILL-WIPC"}.Key()
	if strings.Contains(key, "cores=") || strings.Contains(key, "pair=") {
		t.Fatalf("single-core key grew multicore params: %s", key)
	}
	if key != (Spec{Workload: "art-mcf", Tech: "HILL-WIPC", Cores: 1}).Key() {
		t.Fatal("Cores: 1 keys differently from Cores: 0")
	}
}

// TestSingleCoreResultJSONUnchanged pins the wire: a single-core Result
// marshals without any of the version-2 multicore fields, byte-
// identical to what a wire-version-1 peer produced.
func TestSingleCoreResultJSONUnchanged(t *testing.T) {
	b, err := json.Marshal(Result{Workload: "art-mcf", Tech: "ICOUNT", TotalIPC: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cores", "pairing", "migrations", "core_ipc", "l3_miss_rate"} {
		if strings.Contains(string(b), field) {
			t.Fatalf("single-core Result serialised multicore field %q: %s", field, b)
		}
	}
}

// TestRunMulticore runs the full multi-core path end to end at a small
// scale and checks the Result's multicore surface.
func TestRunMulticore(t *testing.T) {
	s := Spec{
		Workload: "art,mcf,fma3d,gcc", Tech: "HILL-WIPC",
		Epochs: 4, EpochSize: 2048, Warmup: 1, Cores: 2,
	}
	run := func() Result {
		res, err := Run(context.Background(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Cores != 2 || res.Pairing != "ipc-pred" {
		t.Fatalf("result header = %d cores, pairing %q", res.Cores, res.Pairing)
	}
	if len(res.CoreIPC) != 2 {
		t.Fatalf("CoreIPC has %d entries", len(res.CoreIPC))
	}
	if len(res.Threads) != 4 {
		t.Fatalf("%d thread results", len(res.Threads))
	}
	if res.TotalIPC <= 0 {
		t.Fatal("no aggregate progress")
	}
	if res.L3MissRate < 0 || res.L3MissRate > 1 {
		t.Fatalf("L3MissRate = %v", res.L3MissRate)
	}

	// Determinism: a second identical run serialises to identical bytes.
	b1, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(run())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("multicore Run is not deterministic:\n%s\n%s", b1, b2)
	}
}

// TestBuildRejectsMulticore pins that the single-machine constructor
// refuses multi-core specs instead of silently dropping fields.
func TestBuildRejectsMulticore(t *testing.T) {
	_, _, _, err := Build(Spec{Workload: "art,mcf,fma3d,gcc", Cores: 2})
	if err == nil {
		t.Fatal("Build accepted a multi-core spec")
	}
}
