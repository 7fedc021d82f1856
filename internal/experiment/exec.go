package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"smthill/internal/simjob"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// This file makes every job the experiments submit executable *by key*:
// a key encodes the family, the workload and exactly the Config fields
// its result depends on (see jobs.go), so a node that receives only the
// key can rebuild the identical job and run it on its own engine. The
// distributed fabric (internal/fabric) rests on that property: closures
// cannot cross the wire, keys can. decodeKey is the one decoder. It
// reads the shared parameters once, rebuilds the job through the
// constructor the native path uses, and refuses a key that does not
// rebuild to itself, so key-grammar drift fails before anything runs.

// ExecKeyOn executes the job identified by key on eng and returns the
// exact raw JSON bytes the engine stored for it — the bytes a local
// computation of that key would have memoised, so remote and local
// results are interchangeable. It runs simjob keys (smtserved specs and
// the figures' baseline, HILL and mcpair runs) as well as the experiment
// families. ok=false means the key belongs to no family this build runs
// (the caller computes locally); an error means the key named a family
// but was refused or failed.
func ExecKeyOn(ctx context.Context, eng *sweep.Engine, key string) (raw json.RawMessage, ok bool, err error) {
	j, ok, err := decodeKey(key)
	if !ok || err != nil {
		return nil, ok, err
	}
	if err := j.run(ctx, eng); err != nil {
		return nil, true, err
	}
	raw, _, found := eng.Lookup(ctx, key)
	if !found {
		return nil, true, fmt.Errorf("experiment: exec %s: result is not cacheable", key)
	}
	return raw, true, nil
}

// keyedJob is a job rebuilt from its key with its result type erased:
// run submits it to an engine.
type keyedJob struct {
	key string
	run func(ctx context.Context, eng *sweep.Engine) error
}

func keyed[R any](j sweep.Job[R]) keyedJob {
	return keyedJob{key: j.Key, run: func(ctx context.Context, eng *sweep.Engine) error {
		_, err := sweep.Run(ctx, eng, []sweep.Job[R]{j})
		return err
	}}
}

// withSingles rebuilds an ideal learner's job. Its constructor needs the
// workload's reference singles, which are computed on the executing
// engine through the native solo jobs, so they memoise and cache alike.
func withSingles[R any](cfg Config, w workload.Workload, build func(Config, workload.Workload, []float64) sweep.Job[R]) keyedJob {
	return keyedJob{key: build(cfg, w, nil).Key, run: func(ctx context.Context, eng *sweep.Engine) error {
		solos, err := solosOn(ctx, eng, cfg, []workload.Workload{w})
		if err != nil {
			return err
		}
		return keyed(build(cfg, w, singlesFor(solos, w))).run(ctx, eng)
	}}
}

// keyArgs are a key's decoded parameters: the Config fields by key name,
// the workload, and the application some families add.
type keyArgs struct {
	cfg Config
	w   workload.Workload
	app string
}

// families rebuilds each experiment job family from its decoded key.
// Baseline and HILL runs have no family here: they are simjob specs
// (techSpec), decoded by simjob.SpecFromKey.
var families = map[string]func(a keyArgs) keyedJob{
	"solo":      func(a keyArgs) keyedJob { return keyed(soloJob(a.app, a.cfg.SoloCycles)) },
	"table2":    func(a keyArgs) keyedJob { return keyed(table2Job(a.cfg, a.app)) },
	"phasehill": func(a keyArgs) keyedJob { return keyed(phaseHillJob(a.cfg, a.w)) },
	"offline":   func(a keyArgs) keyedJob { return withSingles(a.cfg, a.w, offLineJob) },
	"randhill":  func(a keyArgs) keyedJob { return withSingles(a.cfg, a.w, randHillJob) },
}

// Bounds on the experiment knobs a key carries. Any client that reaches
// a worker can post a key, so its numbers are checked before anything
// is built: the epoch geometry against simjob's Limits, these three
// with room for Paper() (stride 2, 128 iterations, 4M solo cycles).
const (
	maxKeyStride     = 256     // the default integer rename file's size
	maxKeyIters      = 1024    // RAND-HILL trials per epoch
	maxKeySoloCycles = 1 << 26 // one stand-alone reference run
)

// decodeKey rebuilds the job key names without running anything. A
// parameter the family does not use, a missing one, a number out of
// range, or a non-canonical spelling makes the key refused; so does an
// unknown app or workload.
func decodeKey(key string) (keyedJob, bool, error) {
	prefix, params, err := sweep.ParseKey(key)
	if err != nil {
		return keyedJob{}, false, nil // not a canonical key; not ours
	}
	spec, isSpec, err := simjob.SpecFromKey(key)
	switch {
	case err != nil:
		return keyedJob{}, true, err
	case isSpec:
		return keyed(simjob.Job(spec, tele)), true, nil
	}
	// Another results version is not ours either: a version-skewed peer
	// must recompute locally rather than receive bytes produced under
	// different semantics.
	family, ok := strings.CutPrefix(prefix, keyPrefix(""))
	build, known := families[family]
	if !ok || !known {
		return keyedJob{}, false, nil
	}
	refuse := func(format string, args ...any) (keyedJob, bool, error) {
		return keyedJob{}, true, fmt.Errorf("experiment: exec %s: %s", key, fmt.Sprintf(format, args...))
	}

	a := keyArgs{cfg: Default(), app: params["app"]}
	for _, f := range []struct {
		name     string
		dst      *int
		min, max int
	}{
		{"es", &a.cfg.EpochSize, 1, simjob.MaxEpochSize},
		{"ep", &a.cfg.Epochs, 1, simjob.MaxEpochs},
		{"wu", &a.cfg.WarmupEpochs, 1, simjob.MaxWarmup},
		{"stride", &a.cfg.OffLineStride, 1, maxKeyStride},
		{"iters", &a.cfg.RandHillIters, 1, maxKeyIters},
		{"sc", &a.cfg.SoloCycles, 1, maxKeySoloCycles},
		{"cycles", &a.cfg.SoloCycles, 1, maxKeySoloCycles}, // solo keys say "cycles"
	} {
		v, ok := params[f.name]
		if !ok {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return refuse("bad %s %q", f.name, v)
		}
		if n < f.min || n > f.max {
			return refuse("%s %d outside [%d, %d]", f.name, n, f.min, f.max)
		}
		*f.dst = n
	}
	if v, ok := params["wl"]; ok {
		if a.w, err = workload.Parse(v); err != nil {
			return refuse("%v", err)
		}
	}
	if _, ok := params["app"]; ok && !knownApp(a.app) {
		return refuse("unknown application %q", a.app)
	}

	j := build(a)
	if j.key != key {
		return refuse("rebuilds to %s", j.key)
	}
	return j, true, nil
}

func knownApp(name string) bool {
	return slices.Contains(workload.Names(), name)
}
