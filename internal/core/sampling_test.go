package core

import (
	"testing"

	"smthill/internal/metrics"
	"smthill/internal/pipeline"
	"smthill/internal/policy"
	"smthill/internal/resource"
	"smthill/internal/trace"
	"smthill/internal/workload"
)

// recordingDist captures every prev result the Runner feeds to Decide.
type recordingDist struct {
	calls []*EpochResult
}

func (r *recordingDist) Name() string { return "REC" }
func (r *recordingDist) Decide(prev *EpochResult) resource.Shares {
	r.calls = append(r.calls, prev)
	return nil
}
func (r *recordingDist) OverheadCycles() int { return 0 }

// TestSamplingBootstrapAndRotation pins the Section 4.2 schedule: the
// first T epochs sample each thread once (one thread per epoch, in
// order), then one thread is refreshed every SamplePeriod epochs in
// rotation.
func TestSamplingBootstrapAndRotation(t *testing.T) {
	m := machineFor([]trace.Profile{ilpProfile(1), mlpProfile(2)}, nil)
	rec := &recordingDist{}
	r := NewRunner(m, rec, metrics.WeightedIPC)
	r.EpochSize = 4 * 1024
	r.SamplePeriod = 4
	res := r.Run(12)

	// Bootstrap: epochs 0..T-1 sample threads 0..T-1 in order.
	for th := 0; th < 2; th++ {
		if !res[th].Sample || res[th].SampledThread != th {
			t.Fatalf("epoch %d: Sample=%v thread=%d, want bootstrap sample of thread %d",
				th, res[th].Sample, res[th].SampledThread, th)
		}
	}
	// Rotation: epochs 4 and 8 are the only later samples, refreshing
	// threads 0 and 1 in turn.
	wantSamples := map[int]int{0: 0, 1: 1, 4: 0, 8: 1}
	for i, e := range res {
		wantTh, want := wantSamples[i]
		if e.Sample != want {
			t.Fatalf("epoch %d: Sample=%v, want %v", i, e.Sample, want)
		}
		if want && e.SampledThread != wantTh {
			t.Fatalf("epoch %d sampled thread %d, want %d", i, e.SampledThread, wantTh)
		}
	}
	// Both threads have a measured stand-alone IPC after the bootstrap.
	for th, s := range r.Singles() {
		if s <= 0 {
			t.Fatalf("thread %d SingleIPC not measured: %v", th, r.Singles())
		}
	}
}

// TestSamplingEpochsNeverFeedDecide verifies the runner's contract that
// sampling epochs are invisible to the distributor: Decide is called
// once per learning epoch only, and the prev it sees is always the most
// recent learning epoch, never a sampling one.
func TestSamplingEpochsNeverFeedDecide(t *testing.T) {
	m := machineFor([]trace.Profile{ilpProfile(3), mlpProfile(4)}, nil)
	rec := &recordingDist{}
	r := NewRunner(m, rec, metrics.WeightedIPC)
	r.EpochSize = 4 * 1024
	r.SamplePeriod = 4
	r.Run(12)

	// Samples land at epochs 0, 1, 4, 8 -> learning epochs are the other 8.
	if len(rec.calls) != 8 {
		t.Fatalf("Decide called %d times, want 8", len(rec.calls))
	}
	if rec.calls[0] != nil {
		t.Fatalf("first Decide saw prev %+v, want nil", rec.calls[0])
	}
	for i, prev := range rec.calls[1:] {
		if prev == nil {
			t.Fatalf("Decide call %d saw nil prev", i+1)
		}
		if prev.Sample {
			t.Fatalf("Decide call %d fed a sampling epoch (index %d)", i+1, prev.Index)
		}
	}
	// Across a sampling gap, prev is the last learning epoch: the call
	// for epoch 5 (after the epoch-4 sample) must see epoch 3.
	wantPrevIndex := []int{2, 3, 5, 6, 7, 9, 10}
	for i, want := range wantPrevIndex {
		if got := rec.calls[i+1].Index; got != want {
			t.Fatalf("Decide call %d saw prev index %d, want %d", i+1, got, want)
		}
	}
}

// TestNoSamplingWhenDisabled: sampling requires a weighted metric, a
// positive period, and no reference singles.
func TestNoSamplingWhenDisabled(t *testing.T) {
	cases := []struct {
		name  string
		tweak func(*Runner)
	}{
		{"avg-ipc metric", func(r *Runner) { r.Metric = metrics.AvgIPC }},
		{"period zero", func(r *Runner) { r.SamplePeriod = 0 }},
		{"reference singles", func(r *Runner) { r.ReferenceSingles = []float64{1, 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := machineFor([]trace.Profile{ilpProfile(5), mlpProfile(6)}, nil)
			rec := &recordingDist{}
			r := NewRunner(m, rec, metrics.WeightedIPC)
			r.EpochSize = 4 * 1024
			r.SamplePeriod = 4
			tc.tweak(r)
			for _, e := range r.Run(6) {
				if e.Sample {
					t.Fatalf("%s: epoch %d is a sampling epoch", tc.name, e.Index)
				}
			}
			if len(rec.calls) != 6 {
				t.Fatalf("%s: Decide called %d times, want 6", tc.name, len(rec.calls))
			}
		})
	}
}

// TestNonLearningRunnersNeverSample: SingleIPC sampling belongs to the
// learner. A baseline under None or a STATIC partition never reads the
// score, so even with a weighted metric and the default period its run
// has no sampling epoch and never fetch-disables a thread.
func TestNonLearningRunnersNeverSample(t *testing.T) {
	w := workload.ByName("art-mcf-fma3d-gcc")
	type run struct {
		name string
		pol  string
		dist Distributor
	}
	var runs []run
	for _, pol := range []string{"ICOUNT", "STALL", "FLUSH", "DCRA"} {
		runs = append(runs, run{pol, pol, None{Label: pol}})
	}
	runs = append(runs, run{"STATIC", "", NewStatic(w.Threads(), resource.DefaultSizes()[resource.IntRename])})
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			var pol pipeline.Policy
			if tc.pol != "" {
				pol = policy.ByName(tc.pol)
			}
			m := w.NewMachine(pol)
			r := NewRunner(m, tc.dist, metrics.WeightedIPC)
			r.EpochSize = 2 * 1024
			if r.SamplePeriod != DefaultSamplePeriod {
				t.Fatalf("SamplePeriod %d, want the default %d", r.SamplePeriod, DefaultSamplePeriod)
			}
			for e := 0; e < 2*w.Threads()+1; e++ {
				r.PrepareEpoch()
				for th := 0; th < w.Threads(); th++ {
					if !m.FetchEnabled(th) {
						t.Fatalf("epoch %d: thread %d fetch-disabled", e, th)
					}
				}
				m.CycleN(r.EpochSize)
				if res := r.FinishEpoch(); res.Sample {
					t.Fatalf("epoch %d samples thread %d", e, res.SampledThread)
				}
			}
		})
	}
}
