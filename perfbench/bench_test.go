package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"smthill/internal/experiment"
	"smthill/internal/simjob"
	"smthill/internal/workload"
)

// tinyConfig keeps the round tests to a fraction of a second.
var tinyConfig = experiment.Config{
	EpochSize: 1024, Epochs: 3, WarmupEpochs: 1, OffLineStride: 64, RandHillIters: 2, SoloCycles: 4096,
}

func TestPercentileTailRule(t *testing.T) {
	if got := beyond(200, 95); got != 10 {
		t.Errorf("beyond(200, 95) = %d, want 10", got)
	}
	if got := beyond(199, 95); got != 9 {
		t.Errorf("beyond(199, 95) = %d, want 9: a p95 over 199 samples is not backed", got)
	}
	if got := beyond(minLatencySamples, 95); got < minTail {
		t.Errorf("minLatencySamples = %d leaves %d beyond p95, want >= %d", minLatencySamples, got, minTail)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (nearest rank)", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestInputsDeterministic(t *testing.T) {
	a, b := newInputs(7), newInputs(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a, newInputs(8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}

	// Every seed runs the same work: each figure covers all workloads of
	// its groups, and every fabric round all 42, in a seed-chosen order.
	isOrderOf := func(what string, order []string, ws []workload.Workload) {
		got, want := slices.Clone(order), names(ws)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s is not an order of its %d workloads", what, len(want))
		}
	}
	isOrderOf("fig4", a.Fig4, workload.TwoThread())
	isOrderOf("fig9", a.Fig9, workload.All())
	if len(a.Fabric) != fabricOrders {
		t.Errorf("got %d fabric orders, want %d", len(a.Fabric), fabricOrders)
	}
	for k, order := range a.Fabric {
		isOrderOf(fmt.Sprintf("fabric order %d", k), order, workload.All())
		if k > 0 && slices.Equal(order, a.Fabric[0]) {
			t.Errorf("fabric order %d repeats order 0", k)
		}
	}
	if workload.ByName(a.ProbeILP2).Group != "ILP2" || workload.ByName(a.ProbeMEM2).Group != "MEM2" {
		t.Errorf("probes %s and %s, want an ILP2 and a MEM2 workload", a.ProbeILP2, a.ProbeMEM2)
	}

	classes, techs := map[string]int{}, map[string]int{}
	seeds := map[uint64]bool{}
	for k, s := range a.Serve {
		classes[s.Class]++
		if s.Class == classShort {
			techs[s.Spec.Tech]++
		}
		if err := s.Spec.Validate(); err != nil {
			t.Errorf("spec %d: %v", k, err)
		}
		if s.Of < 0 {
			if s.Spec.Seed == 0 || seeds[s.Spec.Seed] {
				t.Errorf("spec %d: simjob seed %d is zero or repeated", k, s.Spec.Seed)
			}
			seeds[s.Spec.Seed] = true
			continue
		}
		orig := a.Serve[s.Of]
		if s.Of > k-3 || orig.Of >= 0 || orig.Class == classSteep || orig.Spec != s.Spec {
			t.Errorf("resubmission %d repeats spec %d (%s), want an earlier short or 2-core spec", k, s.Of, orig.Class)
		}
	}
	wantClasses := map[string]int{classShort: 42, classMulticore: 6, classSteep: 3, classResubmit: serveResubmits}
	if !reflect.DeepEqual(classes, wantClasses) {
		t.Errorf("serve classes %v, want %v", classes, wantClasses)
	}
	if wantTechs := map[string]int{"ICOUNT": 14, "DCRA": 14, "HILL-WIPC": 14}; !reflect.DeepEqual(techs, wantTechs) {
		t.Errorf("short jobs per technique %v, want %v", techs, wantTechs)
	}
}

// TestFreshStatePerRound runs two traced rounds of each workload kind at
// a tiny scale: the second must compute exactly what the first did,
// with no memo, store or daemon state carried over.
func TestFreshStatePerRound(t *testing.T) {
	t.Run("figure", func(t *testing.T) {
		r := newRun("fig4-offline", 1, 0, true)
		r.cfg = tinyConfig
		loads := byNames([]string{"art-mcf", "gzip-bzip2"})
		for i := 0; i < 2; i++ {
			if _, _, ok := r.figureRound(fig4, loads, i, true); !ok {
				t.Fatalf("round %d failed: %v", i, r.problems)
			}
		}
		// Each round computes 3 baselines + OFF-LINE per workload, and
		// the figure finds only its own set-up's four solo runs memoised.
		assertRounds(t, r, "sweep.jobs", 8)
		assertRounds(t, r, "sweep.memo_hits", 4)
	})
	t.Run("fabric", func(t *testing.T) {
		r := newRun("fabric-fig9", 1, 0, true)
		r.cfg = tinyConfig
		loads := byNames([]string{"art-mcf", "gzip-bzip2"})
		for i := 0; i < 2; i++ {
			if _, ok, err := r.fabricRound(loads, i, true); err != nil || !ok {
				t.Fatalf("round %d: ok %v, err %v, problems %v", i, ok, err, r.problems)
			}
		}
		assertRounds(t, r, "sweep.jobs", 8)
		assertRounds(t, r, "sweep.memo_hits", 4)
		assertRounds(t, r, "fabric.local_fallback", 0)
	})
	t.Run("serve", func(t *testing.T) {
		r := newRun("serve-jobs", 1, 0, true)
		spec := func(wl string, seed uint64) simjob.Spec {
			return simjob.Spec{Workload: wl, Tech: "ICOUNT", Epochs: 2, EpochSize: 1024, Warmup: 1, Seed: seed}
		}
		r.in.Serve = []serveSpec{
			{classShort, -1, spec("art-mcf", 1)},
			{classShort, -1, spec("gzip-bzip2", 2)},
			{classResubmit, 0, spec("art-mcf", 1)},
		}
		r.in.ServeWarm = []serveSpec{{classShort, -1, spec("gzip-bzip2", 3)}}
		var digests []string
		for i := 0; i < 2; i++ {
			d, err := r.serveRound(i, true, map[int][]float64{})
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, d)
		}
		if digests[0] != digests[1] {
			t.Errorf("round digests %s and %s differ: the same specs gave different results", digests[0][:16], digests[1][:16])
		}
		// checkServe flags a fresh spec served from the memo, which is
		// what a daemon carried over from round 0 would do in round 1.
		if len(r.problems) > 0 {
			t.Fatalf("problems: %v", r.problems)
		}
		assertRounds(t, r, "sweep.jobs", 2)
		assertRounds(t, r, "sweep.memo_hits", 1)
	})
}

func assertRounds(t *testing.T, r *run, name string, want float64) {
	t.Helper()
	if got := r.layer[name]; !reflect.DeepEqual(got, []float64{want, want}) {
		t.Errorf("%s per round = %v, want [%v %v]", name, got, want, want)
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for k, w := range workloads {
		if k >= len(bf.Workloads) || bf.Workloads[k].Name != w.name || bf.Workloads[k].Why != w.why {
			t.Errorf("workload %d: program has %q (%q), BENCHMARK.json disagrees", k, w.name, w.why)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	check := func(kind string, json []metricDef, defs []metricDef) {
		if !reflect.DeepEqual(json, defs) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nprogram        %v", kind, json, defs)
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)

	// What result emits is exactly the catalog, in both modes.
	for _, traced := range []bool{false, true} {
		r := newRun("fig9-online", 1, time.Second, traced)
		r.attempted = 1
		r.wallS, r.tracedS, r.setupS = []float64{1}, []float64{1}, []float64{1}
		r.latency = make([]float64, minLatencySamples)
		r.layerAdd("sweep.jobs", 1)
		res, err := r.result()
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name := range res.Metrics {
			got = append(got, name)
		}
		for _, m := range catalog(traced) {
			want = append(want, m.name)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("traced=%v emits %v, want %v", traced, got, want)
		}
	}
}

func TestStackSharesReadsCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	m := workload.ByName("art-mcf").NewMachine(nil)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		m.CycleN(4096)
	}
	pprof.StopCPUProfile()
	var s stackShares
	if err := s.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if s.total == 0 {
		t.Skip("the profile caught no samples")
	}
	for _, sh := range s.shares() {
		if sh.pct < 0 || sh.pct > 100 {
			t.Errorf("%s = %v%%, want within [0, 100]", sh.name, sh.pct)
		}
	}
	if s.hits["pipeline.dispatch_share"] == 0 {
		t.Error("no sample's stack holds Machine.dispatch while the machine cycled")
	}
}
