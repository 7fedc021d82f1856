package simjob

import (
	"encoding/json"
	"testing"
)

// FuzzSpec drives raw request bodies through the daemon's decode path:
// JSON decode, Validate, Normalize. Nothing may panic, every spec that
// validates must sit inside the Limits once normalised, and a JSON
// re-encode must not move its cache key.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"workload":"art-mcf","tech":"HILL-WIPC"}`))
	f.Add([]byte(`{"workload":"art-mcf","tech":"ICOUNT","epochs":4,"epoch_size":2048,"warmup":1}`))
	f.Add([]byte(`{"workload":"art,mcf,fma3d,gcc","tech":"STEEP-WIPC","cores":2,"pairing":"random","seed":7}`))
	f.Add([]byte(`{"workload":"art-mcf","epochs":4097,"epoch_size":-1,"warmup":65}`))
	f.Add([]byte(`{"version":3,"workload":"art-mcf","cores":9,"delta":-4}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		n := s.Normalize()
		switch {
		case n.Epochs < 1 || n.Epochs > MaxEpochs,
			n.EpochSize < 1 || n.EpochSize > MaxEpochSize,
			n.Warmup < 0 || n.Warmup > MaxWarmup,
			n.Cores < 0 || n.Cores > MaxCores:
			t.Fatalf("validated spec outside the limits: %+v", n)
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", s, err)
		}
		var back Spec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("decode re-encoded %s: %v", raw, err)
		}
		if back.Key() != s.Key() {
			t.Fatalf("key moved across a JSON round trip:\n%s\n%s", s.Key(), back.Key())
		}
	})
}
