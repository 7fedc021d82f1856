package experiment

import (
	"bytes"
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"smthill/internal/metrics"
	"smthill/internal/simjob"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// TestExecKeyMatchesNativeJobs is the fabric's core correctness
// property: executing a job *by key* on a fresh engine produces byte
// for byte the result the native closure produces — so a remote
// worker's answer is interchangeable with local compute.
func TestExecKeyMatchesNativeJobs(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 3
	cfg.EpochSize = 4 * 1024
	cfg.SoloCycles = 8 * 1024
	w := workload.ByName("art-mcf")
	mc := mcpairSpec(cfg, MulticoreWorkloads(2)[0], 2, "stall-pred")
	t.Cleanup(func() { SetEngine(sweep.NewEngine(0)) })

	native := sweep.NewEngine(0)
	SetEngine(native)
	singles := Singles(cfg, w)

	cases := []struct {
		family string
		key    string
		run    func()
	}{
		{"solo", soloKey("art", cfg.SoloCycles),
			func() { mustRun([]sweep.Job[float64]{soloJob("art", cfg.SoloCycles)}) }},
		{"simjob ICOUNT", techSpec(cfg, w, "ICOUNT").Key(),
			func() { mustRun([]sweep.Job[simjob.Result]{simjob.Job(techSpec(cfg, w, "ICOUNT"), nil)}) }},
		{"simjob HILL-WIPC", techSpec(cfg, w, "HILL-WIPC").Key(),
			func() { mustRun([]sweep.Job[simjob.Result]{simjob.Job(techSpec(cfg, w, "HILL-WIPC"), nil)}) }},
		{"offline", offLineKey(cfg, w),
			func() { mustRun([]sweep.Job[offLineResult]{offLineJob(cfg, w, singles)}) }},
		{"randhill", randHillKey(cfg, w),
			func() { mustRun([]sweep.Job[[]float64]{randHillJob(cfg, w, singles)}) }},
		{"table2", table2Key(cfg, "art"),
			func() { mustRun([]sweep.Job[Table2Row]{table2Job(cfg, "art")}) }},
		{"phasehill", phaseHillKey(cfg, w),
			func() { mustRun([]sweep.Job[phaseHillResult]{phaseHillJob(cfg, w)}) }},
		{"simjob mcpair", mc.Key(),
			func() { mustRun([]sweep.Job[simjob.Result]{simjob.Job(mc, nil)}) }},
	}

	for _, c := range cases {
		SetEngine(native)
		c.run()
		want, _, ok := native.Lookup(context.Background(), c.key)
		if !ok {
			t.Fatalf("%s: native run left no memo entry for %s", c.family, c.key)
		}

		got, handled, err := ExecKeyOn(context.Background(), sweep.NewEngine(0), c.key)
		if err != nil || !handled {
			t.Fatalf("%s: ExecKeyOn(%s) handled=%v err=%v", c.family, c.key, handled, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: ExecKeyOn bytes differ from native\n exec:   %s\n native: %s", c.family, got, want)
		}
	}
}

func TestExecKeyDeclinesForeignKeys(t *testing.T) {
	for _, key := range []string{
		"v1|offline|wl=art-mcf|es=1024|ep=2|wu=1|stride=16|sc=1024", // older results version
		"v99|hill|wl=art-mcf", // foreign results version
		"not a key at all",
		"v2|nosuchfamily|wl=art-mcf",
		// Baseline and HILL runs are simjob specs: the old families are
		// gone, and so is the simjob schema that sampled baselines.
		"v2|hill|wl=art-mcf",
		"v2|hill|es=1024|ep=2|metric=weighted-ipc|wl=art-mcf|wu=1",
		"v2|baseline|ep=2|es=1024|pol=ICOUNT|wl=art-mcf|wu=1",
		"v2|baseline|wl=zzz|pol=ICOUNT|es=1024|ep=2|wu=1",
		"v1|simjob|d=4|ep=2|es=1024|seed=0|tech=DCRA|wl=art-mcf|wu=1",
	} {
		if _, handled, err := ExecKeyOn(context.Background(), sweep.NewEngine(1), key); handled || err != nil {
			t.Errorf("ExecKeyOn(%q) = handled=%v err=%v, want declined", key, handled, err)
		}
	}
}

// familyKeys returns one valid key per executable family.
func familyKeys() map[string]string {
	cfg := tiny()
	w := workload.ByName("art-mcf")
	return map[string]string{
		"solo":          soloKey("art", cfg.SoloCycles),
		"table2":        table2Key(cfg, "art"),
		"phasehill":     phaseHillKey(cfg, w),
		"offline":       offLineKey(cfg, w),
		"randhill":      randHillKey(cfg, w),
		"simjob":        techSpec(cfg, w, "DCRA").Key(),
		"simjob-hill":   techSpec(cfg, w, "HILL-WIPC").Key(),
		"simjob-mcpair": mcpairSpec(cfg, MulticoreWorkloads(2)[0], 2, "random").Key(),
	}
}

// rekey rewrites one parameter of key (an empty value drops it).
func rekey(t *testing.T, key, name, value string) string {
	t.Helper()
	prefix, params, err := sweep.ParseKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if value == "" {
		delete(params, name)
	} else {
		params[name] = value
	}
	return sweep.KeyFrom(prefix, params)
}

// TestExecKeyRefusesBeforeRunning: a key that names a family but does
// not rebuild to itself — a parameter dropped or added, an unknown app,
// technique or workload, or a warm-up below 1 — is refused before any
// simulation, solo references included, touches the engine.
func TestExecKeyRefusesBeforeRunning(t *testing.T) {
	keys := familyKeys()
	var bad []string
	for family, key := range keys {
		_, params, err := sweep.ParseKey(key)
		if err != nil {
			t.Fatal(err)
		}
		for name := range params {
			bad = append(bad, rekey(t, key, name, "")) // one parameter dropped
		}
		bad = append(bad, rekey(t, key, "extra", "1"))
		if !strings.HasPrefix(family, "simjob") {
			// A Config field another family reads is extra here too.
			other := "iters"
			if family == "randhill" {
				other = "stride"
			}
			bad = append(bad, rekey(t, key, other, "8"))
		}
		for name, unknown := range map[string]string{"app": "zzz", "tech": "NOPE", "wl": "zzz-yyy"} {
			if _, ok := params[name]; ok {
				bad = append(bad, rekey(t, key, name, unknown))
			}
		}
		if _, ok := params["wu"]; ok {
			bad = append(bad, rekey(t, key, "wu", "0"), rekey(t, key, "wu", "-1"))
		}
	}
	bad = append(bad,
		"v2|solo|app=zzz|cycles=1024",              // unknown app
		"v2|solo|app=art|cycles=banana",            // non-numeric
		rekey(t, keys["offline"], "es", "08192"),   // non-canonical number
		rekey(t, keys["offline"], "wl", "art,mcf"), // non-canonical workload spelling
	)

	soloKeys := []string{soloKey("art", tiny().SoloCycles), soloKey("mcf", tiny().SoloCycles)}
	for _, key := range bad {
		eng := sweep.NewEngine(1)
		var events atomic.Int64
		eng.SetObserver(func(sweep.Event) { events.Add(1) })
		if _, handled, err := ExecKeyOn(context.Background(), eng, key); !handled || err == nil {
			t.Errorf("ExecKeyOn(%q) = handled=%v err=%v, want handled error", key, handled, err)
		}
		if n := events.Load(); n != 0 {
			t.Errorf("ExecKeyOn(%q) submitted work before refusing it (%d engine events)", key, n)
		}
		for _, k := range append(soloKeys, key) {
			if _, _, ok := eng.Lookup(context.Background(), k); ok {
				t.Errorf("ExecKeyOn(%q) left %s in the memo", key, k)
			}
		}
	}
}

// TestExecKeyRefusesOutOfRange: a canonical key whose numbers fall
// outside the bounds is refused before anything runs, and keys at
// Paper() scale are still accepted. Without the bounds a negative epoch
// count panicked in the OFF-LINE run after its singles had been
// computed, and a negative epoch size or solo length ran to an ok
// result.
func TestExecKeyRefusesOutOfRange(t *testing.T) {
	cfg := tiny()
	w := workload.ByName("art-mcf")
	keys := familyKeys()
	cases := []struct{ name, key string }{
		{"offline ep<0", rekey(t, keys["offline"], "ep", "-3")},
		{"phasehill es<0", rekey(t, keys["phasehill"], "es", "-4096")},
		{"solo cycles<0", "v2|solo|app=art|cycles=-5"},
		{"es 0", rekey(t, keys["phasehill"], "es", "0")},
		{"es above limit", rekey(t, keys["offline"], "es", strconv.Itoa(simjob.MaxEpochSize+1))},
		{"ep 0", rekey(t, keys["randhill"], "ep", "0")},
		{"ep above limit", rekey(t, keys["phasehill"], "ep", strconv.Itoa(simjob.MaxEpochs+1))},
		{"wu above limit", rekey(t, keys["offline"], "wu", strconv.Itoa(simjob.MaxWarmup+1))},
		{"stride 0", rekey(t, keys["offline"], "stride", "0")},
		{"stride above bound", rekey(t, keys["offline"], "stride", strconv.Itoa(maxKeyStride+1))},
		{"iters<0", rekey(t, keys["randhill"], "iters", "-1")},
		{"iters above bound", rekey(t, keys["randhill"], "iters", strconv.Itoa(maxKeyIters+1))},
		{"sc 0", rekey(t, keys["table2"], "sc", "0")},
		{"sc above bound", rekey(t, keys["randhill"], "sc", strconv.Itoa(maxKeySoloCycles+1))},
		{"cycles above bound", soloKey("art", maxKeySoloCycles+1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sweep.NewEngine(1)
			var events atomic.Int64
			eng.SetObserver(func(sweep.Event) { events.Add(1) })
			_, handled, err := ExecKeyOn(context.Background(), eng, c.key)
			if !handled || err == nil || !strings.Contains(err.Error(), "outside") {
				t.Errorf("ExecKeyOn(%q) = handled=%v err=%v, want an out-of-range refusal", c.key, handled, err)
			}
			if n := events.Load(); n != 0 {
				t.Errorf("ExecKeyOn(%q) submitted work before refusing it (%d engine events)", c.key, n)
			}
		})
	}

	paper := Paper()
	for _, key := range []string{
		soloKey("art", paper.SoloCycles), table2Key(paper, "art"), phaseHillKey(paper, w),
		offLineKey(paper, w), randHillKey(paper, w), offLineKey(cfg, w),
	} {
		if _, ok, err := decodeKey(key); !ok || err != nil {
			t.Errorf("decodeKey(%q) = ok=%v err=%v, want accepted", key, ok, err)
		}
	}
}

// TestFig7ReusesFig4OffLine: Figure 7's hill widths come with Figure 4's
// OFF-LINE jobs, so after Figure 4 on one engine HillWidths computes
// nothing.
func TestFig7ReusesFig4OffLine(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 2
	loads := tinyLoads()

	e := sweep.NewEngine(2)
	var computed, hits atomic.Int64
	e.SetObserver(func(ev sweep.Event) {
		switch {
		case ev.Kind != sweep.JobDone:
		case ev.Source == sweep.FromRun:
			computed.Add(1)
		default:
			hits.Add(1)
		}
	})
	var rows []HillWidthRow
	withEngine(e, func() {
		Figure4(cfg, loads)
		computed.Store(0)
		hits.Store(0)
		rows = HillWidths(cfg, loads)
	})
	if n := computed.Load(); n != 0 {
		t.Fatalf("HillWidths after Figure4 computed %d jobs, want 0", n)
	}
	if hits.Load() == 0 || len(rows) != len(loads) || len(rows[0].Width) != len(HillWidthLevels) {
		t.Fatalf("HillWidths rows = %+v (memo hits %d)", rows, hits.Load())
	}
}

// FuzzExecKeyDecode drives arbitrary strings through the key decoder
// alone (decodeKey never runs a simulation). Nothing may panic, and a
// key it accepts must be canonical and rebuild to exactly itself.
func FuzzExecKeyDecode(f *testing.F) {
	var seeds []string
	for _, key := range familyKeys() {
		seeds = append(seeds, key)
	}
	sort.Strings(seeds) // stable seed#N names
	for _, key := range seeds {
		f.Add(key)
	}
	f.Add("v2|hill|wl=art-mcf")
	f.Add("v2|baseline|ep=6|es=8192|pol=NOPE|wl=art-mcf|wu=1")
	f.Add("v2|solo|app=art|cycles=-1")
	f.Add("v1|simjob|cores=9|wl=art")
	f.Add("v2|offline|wl=%zz")
	f.Add("not a key")
	prefix, params, err := sweep.ParseKey(familyKeys()["offline"])
	if err != nil {
		f.Fatal(err)
	}
	params["wu"] = "0" // the figure builders panic here; the decoder must refuse first
	f.Add(sweep.KeyFrom(prefix, params))
	f.Fuzz(func(t *testing.T, key string) {
		j, ok, err := decodeKey(key)
		if !ok || err != nil {
			return
		}
		if j.key != key {
			t.Fatalf("accepted %q but rebuilt %q", key, j.key)
		}
		prefix, params, perr := sweep.ParseKey(key)
		if perr != nil || sweep.KeyFrom(prefix, params) != key {
			t.Fatalf("accepted non-canonical key %q", key)
		}
		if j.run == nil {
			t.Fatalf("accepted %q without a runnable job", key)
		}
	})
}

// TestFigureJobsRefuseNoWarmup: every figure job builder that keys a
// warm-up panics on a Config with none, rather than simjob running its
// default of 2 where the ideal learners would run 0.
func TestFigureJobsRefuseNoWarmup(t *testing.T) {
	cfg := tiny()
	cfg.WarmupEpochs = 0
	w := workload.ByName("art-mcf")
	for name, build := range map[string]func(){
		"techSpec":     func() { techSpec(cfg, w, "DCRA") },
		"offLineKey":   func() { offLineKey(cfg, w) },
		"randHillKey":  func() { randHillKey(cfg, w) },
		"phaseHillKey": func() { phaseHillKey(cfg, w) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s built a job with WarmupEpochs 0", name)
				}
			}()
			build()
		}()
	}
}

// TestFigureRunsAreSimjobSpecs: Figure 9 runs its baselines and HILL as
// simjob specs, so apart from the solo references every job it computes
// has a simjob key, and `smtsim -tech` (simjob.Run outside any engine)
// reproduces fig9's baseline scores bit for bit.
func TestFigureRunsAreSimjobSpecs(t *testing.T) {
	cfg := tiny()
	loads := []workload.Workload{workload.ByName("art-mcf"), workload.ByName("art-mcf-fma3d-gcc")}

	e := sweep.NewEngine(2)
	var mu sync.Mutex
	var computed []string
	e.SetObserver(func(ev sweep.Event) {
		if ev.Kind == sweep.JobDone && ev.Source == sweep.FromRun {
			mu.Lock()
			computed = append(computed, ev.Key)
			mu.Unlock()
		}
	})
	var rows []CompareRow
	withEngine(e, func() { rows = Figure9(cfg, loads) })
	for _, key := range computed {
		if strings.HasPrefix(key, keyPrefix("solo")) {
			continue
		}
		if _, ok, err := simjob.SpecFromKey(key); !ok || err != nil {
			t.Errorf("Figure9 computed %s, not a simjob spec (err %v)", key, err)
		}
	}

	for k, w := range loads {
		singles := Singles(cfg, w)
		for _, pol := range baselineNames() {
			res, err := simjob.Run(context.Background(), simjob.Spec{
				Workload: w.Name(), Tech: pol,
				Epochs: cfg.Epochs, EpochSize: cfg.EpochSize, Warmup: cfg.WarmupEpochs,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ipc := make([]float64, len(res.Threads))
			for i, th := range res.Threads {
				ipc[i] = th.IPC
			}
			if got, want := metrics.WeightedIPC.Eval(ipc, singles), rows[k].Scores[pol]; got != want {
				t.Errorf("%s %s: simjob.Run scores %v, fig9 %v", w.Name(), pol, got, want)
			}
		}
	}
}
