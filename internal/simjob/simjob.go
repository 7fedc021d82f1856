// Package simjob defines the one simulation-job schema shared by the
// command-line tools (cmd/smtsim -json) and the service daemon
// (internal/serve): a JSON Spec describing a single workload/technique
// run, non-panicking validation, a canonical sweep cache key, and a
// context-aware runner producing a machine-readable Result that mirrors
// cmd/smtsim's text output field for field.
//
// Determinism contract: Run is a pure function of the (normalised) Spec.
// Two equal specs produce identical Results regardless of which process
// computes them, so Result may be memoised and disk-cached under
// Spec.Key() by the sweep engine (see internal/sweep).
package simjob

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/multicore"
	"smthill/internal/pipeline"
	"smthill/internal/policy"
	"smthill/internal/resource"
	"smthill/internal/sweep"
	"smthill/internal/telemetry"
	"smthill/internal/workload"
)

// Limits bound a Spec so a hosted daemon cannot be asked for an
// unboundedly expensive simulation through the public API. They are
// generous for interactive use: the defaults admit paper-scale runs.
const (
	// MaxEpochs bounds Spec.Epochs (the paper's methodology uses 240).
	MaxEpochs = 4096
	// MaxEpochSize bounds Spec.EpochSize in cycles (the paper's 64K).
	MaxEpochSize = 1 << 20
	// MaxWarmup bounds Spec.Warmup in epochs.
	MaxWarmup = 64
	// MaxCores bounds Spec.Cores (each core simulates a full 2-context
	// pipeline, so cost grows linearly in cores).
	MaxCores = 8
)

// schemaVersion is folded into Key so cached Results from an older
// incompatible Result layout are never served. Bump on breaking changes
// to Result or to the simulation semantics behind it.
//
// Version history: 1 was the first keyed schema; 2 stopped SingleIPC
// sampling under the non-learning techniques (ICOUNT, STALL, FLUSH,
// DCRA, STATIC), whose version-1 Results spent T epochs with all but
// one thread fetch-disabled; 3 bound STEEP-WIPC's probe horizon to the
// spec's EpochSize, where version 2 probed 65,536 cycles whatever the
// epoch size, so its Results differ at every other EpochSize.
const schemaVersion = 3

// WireVersion is the current Spec JSON wire version. A client may stamp
// Spec.Version, and Validate rejects versions newer than this build
// understands instead of misinterpreting the payload. Version zero (the
// field omitted) always means "current", so clients never need to stamp
// it. Results carry no version: fabric exec responses are guarded by
// fabric.ProtocolVersion instead.
// WireVersion is deliberately separate from schemaVersion: bumping the
// wire version adds fields the other side may not know, bumping the
// schema version changes what a cached Result means.
//
// Version history: 1 added the version field itself; 2 added the
// multicore fields (Spec.Cores/Pairing, Result.Cores/Pairing/
// Migrations/CoreIPC/L3MissRate).
const WireVersion = 2

// Techniques lists the distribution techniques a Spec may name, in
// presentation order (the baselines, then static partitioning, then the
// paper's learners).
func Techniques() []string {
	return []string{
		"ICOUNT", "STALL", "FLUSH", "DCRA", "STATIC",
		"HILL-IPC", "HILL-WIPC", "HILL-HWIPC", "HILL-PHASE",
		"STEEP-WIPC",
	}
}

// Spec is one simulation request: a workload, a resource-distribution
// technique, and the epoch geometry. The zero value of every optional
// field selects the cmd/smtsim default.
type Spec struct {
	// Version is the wire version the producing client speaks (0 means
	// current; see WireVersion). It never enters Key — equal specs at
	// different wire versions are the same simulation.
	Version int `json:"version,omitempty"`
	// Workload is a Table 3 workload name ("art-mcf") or a
	// comma-separated list of catalog application names.
	Workload string `json:"workload"`
	// Tech is the distribution technique (see Techniques).
	Tech string `json:"tech"`
	// Epochs is the number of measured epochs (default 50).
	Epochs int `json:"epochs,omitempty"`
	// EpochSize is the epoch length in cycles (default 64K).
	EpochSize int `json:"epoch_size,omitempty"`
	// Warmup is the number of warmup epochs before measurement. 0
	// selects the default of 2, so a spec cannot ask for no warmup.
	Warmup int `json:"warmup,omitempty"`
	// Delta is the hill-climbing step in rename registers (default 4;
	// ignored by non-hill techniques).
	Delta int `json:"delta,omitempty"`
	// Seed perturbs every member application's stream seed, giving an
	// independent replica of the same workload (0 = the catalog's
	// canonical seeds). It also seeds the random pairing policy.
	Seed uint64 `json:"seed,omitempty"`
	// Cores, when > 1, runs the workload on a multi-core system of that
	// many 2-context SMT cores behind a shared L3 (see
	// internal/multicore). The workload must then supply exactly
	// 2*Cores applications. 0 or 1 is the classic single-core run.
	Cores int `json:"cores,omitempty"`
	// Pairing is the thread-to-core allocation policy for a multi-core
	// run: "random", "ipc-pred", or "stall-pred" (default "ipc-pred").
	// It must be empty when Cores <= 1.
	Pairing string `json:"pairing,omitempty"`
}

// Normalize returns s with defaults filled in. Key and Run both
// normalise internally, so a zero-valued optional field and its explicit
// default address the same cache entry.
func (s Spec) Normalize() Spec {
	if s.Tech == "" {
		s.Tech = "HILL-WIPC"
	}
	if s.Epochs == 0 {
		s.Epochs = 50
	}
	if s.EpochSize == 0 {
		s.EpochSize = core.DefaultEpochSize
	}
	if s.Warmup == 0 {
		s.Warmup = 2
	}
	if s.Delta == 0 {
		s.Delta = core.DefaultDelta
	}
	if s.Cores > 1 && s.Pairing == "" {
		s.Pairing = "ipc-pred"
	}
	return s
}

// Validate checks s without panicking: the workload must parse, the
// technique must be known, and the geometry must fall inside the Limits.
// The returned error is safe to surface verbatim to an API client.
func (s Spec) Validate() error {
	s = s.Normalize()
	w, err := workload.Parse(s.Workload)
	if err != nil {
		return err
	}
	if err := s.validateShape(); err != nil {
		return err
	}
	if s.Cores > 1 && w.Threads() != s.Cores*multicore.ContextsPerCore {
		return fmt.Errorf("simjob: %d-core run needs exactly %d applications, workload %q has %d",
			s.Cores, s.Cores*multicore.ContextsPerCore, s.Workload, w.Threads())
	}
	return nil
}

// validateShape checks everything but the workload name: technique and
// geometry. Split out so runs on an already-resolved workload (custom
// .profile models, see RunWorkload) validate the same way.
func (s Spec) validateShape() error {
	if err := checkWireVersion(s.Version); err != nil {
		return err
	}
	if !validTech(s.Tech) {
		return fmt.Errorf("simjob: unknown technique %q; valid techniques: %s",
			s.Tech, strings.Join(Techniques(), " "))
	}
	switch {
	case s.Epochs < 1 || s.Epochs > MaxEpochs:
		return fmt.Errorf("simjob: epochs %d outside [1, %d]", s.Epochs, MaxEpochs)
	case s.EpochSize < 1 || s.EpochSize > MaxEpochSize:
		return fmt.Errorf("simjob: epoch_size %d outside [1, %d]", s.EpochSize, MaxEpochSize)
	case s.Warmup < 0 || s.Warmup > MaxWarmup:
		return fmt.Errorf("simjob: warmup %d outside [0, %d] (0 selects the default of 2)", s.Warmup, MaxWarmup)
	case s.Delta < 1:
		return fmt.Errorf("simjob: delta %d must be positive", s.Delta)
	case s.Cores < 0 || s.Cores > MaxCores:
		return fmt.Errorf("simjob: cores %d outside [0, %d]", s.Cores, MaxCores)
	}
	if s.Cores > 1 {
		if _, err := multicore.PairingByName(s.Pairing, 0); err != nil {
			return err
		}
		if s.Tech == "HILL-PHASE" {
			return fmt.Errorf("simjob: technique HILL-PHASE is single-core only")
		}
	} else if s.Pairing != "" {
		return fmt.Errorf("simjob: pairing %q requires cores > 1", s.Pairing)
	}
	return nil
}

func validTech(name string) bool {
	for _, t := range Techniques() {
		if t == name {
			return true
		}
	}
	return false
}

// Key returns the canonical sweep-engine cache key of s. Equal
// normalised specs share a key; every field that affects the Result is
// included.
func (s Spec) Key() string {
	s = s.Normalize()
	params := map[string]string{
		"wl":   s.Workload,
		"tech": s.Tech,
		"ep":   strconv.Itoa(s.Epochs),
		"es":   strconv.Itoa(s.EpochSize),
		"wu":   strconv.Itoa(s.Warmup),
		"d":    strconv.Itoa(s.Delta),
		"seed": strconv.FormatUint(s.Seed, 10),
	}
	// Multicore params appear only when active, so every pre-existing
	// single-core key (and its cached Result) stays stable.
	if s.Cores > 1 {
		params["cores"] = strconv.Itoa(s.Cores)
		params["pair"] = s.Pairing
	}
	return sweep.KeyFrom(fmt.Sprintf("v%d|simjob", schemaVersion), params)
}

// ThreadResult is one hardware context's share of a Result.
type ThreadResult struct {
	// Thread is the context index.
	Thread int `json:"thread"`
	// App is the application model running on the context.
	App string `json:"app"`
	// IPC is the thread's committed IPC over the measured epochs.
	IPC float64 `json:"ipc"`
	// Committed, Flushed, and Mispredicts are lifetime counters
	// (including warmup), matching cmd/smtsim's per-thread line.
	Committed   uint64 `json:"committed"`
	Flushed     uint64 `json:"flushed"`
	Mispredicts uint64 `json:"mispredicts"`
}

// Result is the machine-readable outcome of one simulation job. It
// carries exactly the quantities cmd/smtsim prints, so the CLI's -json
// mode and the daemon's job API share one schema.
type Result struct {
	// Workload, Tech, Epochs, and EpochSize echo the normalised Spec.
	Workload  string `json:"workload"`
	Tech      string `json:"tech"`
	Epochs    int    `json:"epochs"`
	EpochSize int    `json:"epoch_size"`
	// Threads holds per-context statistics in context order.
	Threads []ThreadResult `json:"threads"`
	// TotalIPC is the sum of per-thread measured IPCs.
	TotalIPC float64 `json:"total_ipc"`
	// MispredictRate, DL1MissRate, and L2MissRate are lifetime machine
	// rates in [0, 1].
	MispredictRate float64 `json:"mispredict_rate"`
	DL1MissRate    float64 `json:"dl1_miss_rate"`
	L2MissRate     float64 `json:"l2_miss_rate"`
	// Flushes counts policy-initiated flush events machine-wide.
	Flushes uint64 `json:"flushes"`
	// FinalShares is the last partition vector a learning technique
	// adopted (rename registers per thread); empty for unpartitioned
	// techniques.
	FinalShares []int `json:"final_shares,omitempty"`

	// The remaining fields are set only by multi-core runs (Cores > 1);
	// they are all omitted on the single-core path, so its JSON output
	// is byte-identical to wire version 1.
	//
	// Cores and Pairing echo the normalised Spec.
	Cores   int    `json:"cores,omitempty"`
	Pairing string `json:"pairing,omitempty"`
	// Migrations counts thread moves between cores (a swap moves two).
	Migrations uint64 `json:"migrations,omitempty"`
	// CoreIPC is each core's aggregate IPC over the measured epochs.
	CoreIPC []float64 `json:"core_ipc,omitempty"`
	// L3MissRate is the shared last-level cache's lifetime miss rate.
	L3MissRate float64 `json:"l3_miss_rate,omitempty"`
}

// checkWireVersion rejects wire versions this build does not speak.
// Zero (field omitted) and every version up to WireVersion are
// accepted — the schema only grows within a wire version.
func checkWireVersion(v int) error {
	if v < 0 || v > WireVersion {
		return fmt.Errorf("simjob: unsupported wire version %d (this build speaks <= %d); upgrade the older node", v, WireVersion)
	}
	return nil
}

// SpecFromKey reconstructs the Spec addressed by a canonical simjob
// cache key (the inverse of Spec.Key). ok=false means the key belongs
// to some other job family; an error means the key claims to be a
// simjob key but does not parse or validate. This is how a fabric
// worker turns a dispatched key back into runnable work.
func SpecFromKey(key string) (Spec, bool, error) {
	prefix, params, err := sweep.ParseKey(key)
	if err != nil {
		return Spec{}, false, err
	}
	if prefix != fmt.Sprintf("v%d|simjob", schemaVersion) {
		return Spec{}, false, nil
	}
	var s Spec
	s.Workload = params["wl"]
	s.Tech = params["tech"]
	fields := []struct {
		name string
		dst  *int
	}{
		{"ep", &s.Epochs}, {"es", &s.EpochSize}, {"wu", &s.Warmup}, {"d", &s.Delta},
	}
	for _, f := range fields {
		v, err := strconv.Atoi(params[f.name])
		if err != nil {
			return Spec{}, false, fmt.Errorf("simjob: key %q: bad %s: %v", key, f.name, err)
		}
		*f.dst = v
	}
	seed, err := strconv.ParseUint(params["seed"], 10, 64)
	if err != nil {
		return Spec{}, false, fmt.Errorf("simjob: key %q: bad seed: %v", key, err)
	}
	s.Seed = seed
	if v, ok := params["cores"]; ok {
		cores, err := strconv.Atoi(v)
		if err != nil {
			return Spec{}, false, fmt.Errorf("simjob: key %q: bad cores: %v", key, err)
		}
		s.Cores = cores
		s.Pairing = params["pair"]
	}
	if err := s.Validate(); err != nil {
		return Spec{}, false, err
	}
	if got := s.Key(); got != key {
		// A key that parses but does not round-trip would address a
		// different cache entry than it executes; refuse it.
		return Spec{}, false, fmt.Errorf("simjob: key %q does not round-trip (rebuilt %q)", key, got)
	}
	return s, true, nil
}

// Build constructs the machine, distributor, and feedback metric for a
// validated spec. It is the non-exiting counterpart of what cmd/smtsim
// historically wired inline; unknown inputs return an error instead of
// panicking, so a network daemon can surface them as a 400.
func Build(s Spec) (*pipeline.Machine, core.Distributor, metrics.Kind, error) {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, nil, 0, err
	}
	if s.Cores > 1 {
		return nil, nil, 0, fmt.Errorf("simjob: Build constructs a single-core machine; run multi-core specs through Run")
	}
	w, err := s.Resolve()
	if err != nil {
		return nil, nil, 0, err
	}
	return buildWorkload(w, s)
}

// Resolve parses (and, with a non-zero Seed, reseeds) the spec's
// workload.
func (s Spec) Resolve() (workload.Workload, error) {
	w, err := workload.Parse(s.Workload)
	if err != nil {
		return workload.Workload{}, err
	}
	if s.Seed != 0 {
		return reseed(w, s.Seed)
	}
	return w, nil
}

// buildWorkload wires the machine for an already-resolved workload.
// s must be normalized and shape-valid.
func buildWorkload(w workload.Workload, s Spec) (*pipeline.Machine, core.Distributor, metrics.Kind, error) {
	pol, dist, feedback, err := technique(s, w.Threads())
	if err != nil {
		return nil, nil, 0, err
	}
	m := w.NewMachine(pol)
	if st, ok := dist.(*core.Steepest); ok {
		st.M = m
	}
	return m, dist, feedback, nil
}

// technique is the one technique table: it builds the per-cycle policy
// (nil unless s.Tech is a baseline), the distributor, and the feedback
// metric for one machine of the given thread count. The single-core
// path and every core of a multi-core run build through it. s must be
// normalized: STEEP-WIPC probes each candidate for s.EpochSize cycles,
// the epoch the adopted partition governs.
func technique(s Spec, threads int) (pipeline.Policy, core.Distributor, metrics.Kind, error) {
	renameRegs := resource.DefaultSizes()[resource.IntRename]
	switch s.Tech {
	case "ICOUNT", "STALL", "FLUSH", "DCRA":
		return policy.ByName(s.Tech), core.None{Label: s.Tech}, metrics.WeightedIPC, nil
	case "STATIC":
		return nil, core.NewStatic(threads, renameRegs), metrics.WeightedIPC, nil
	case "HILL-IPC", "HILL-WIPC", "HILL-HWIPC":
		metric := map[string]metrics.Kind{
			"HILL-IPC":   metrics.AvgIPC,
			"HILL-WIPC":  metrics.WeightedIPC,
			"HILL-HWIPC": metrics.HmeanWeightedIPC,
		}[s.Tech]
		h := core.NewHillClimber(threads, renameRegs, metric)
		h.Delta = s.Delta
		return nil, h, metric, nil
	case "HILL-PHASE":
		ph := core.NewPhaseHill(threads, renameRegs, metrics.WeightedIPC)
		ph.Hill.Delta = s.Delta
		return nil, ph, metrics.WeightedIPC, nil
	case "STEEP-WIPC":
		st := core.NewSteepest(threads, renameRegs, metrics.WeightedIPC)
		st.Delta = s.Delta
		st.ProbeCycles = s.EpochSize
		return nil, st, metrics.WeightedIPC, nil
	}
	return nil, nil, 0, fmt.Errorf("simjob: unknown technique %q", s.Tech)
}

// reseed rebuilds w with every member application's stream seed
// perturbed by seed, yielding an independent but equally distributed
// replica of the workload. The perturbation is a pure function of
// (profile seed, seed, context index), so the replica is deterministic.
func reseed(w workload.Workload, seed uint64) (workload.Workload, error) {
	profiles := w.Profiles()
	for i := range profiles {
		profiles[i].Seed ^= (seed + uint64(i)) * 0x9e3779b97f4a7c15
	}
	rw, err := workload.Custom(profiles)
	if err != nil {
		return workload.Workload{}, err
	}
	return rw, nil
}

// Run executes the spec to completion, emitting one telemetry epoch (and
// move) event per epoch to trace when non-nil. Cancellation is checked
// at every epoch boundary — including warmup — so a cancelled job stops
// within one epoch (sub-second at default geometry) and returns
// ctx.Err().
func Run(ctx context.Context, s Spec, sink telemetry.Sink) (Result, error) {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	w, err := s.Resolve()
	if err != nil {
		return Result{}, err
	}
	return RunWorkload(ctx, w, s, sink, false)
}

// Job is s as one sweep job keyed by s.Key(), so every caller that
// memoises simulation results (the daemon, the experiments, a fabric
// worker) shares one cache entry per spec. sink receives the run's
// telemetry and never changes the Result.
func Job(s Spec, sink telemetry.Sink) sweep.Job[Result] {
	return sweep.Job[Result]{
		Key: s.Key(),
		Run: func(ctx context.Context) (Result, error) { return Run(ctx, s, sink) },
	}
}

// RunWorkload is Run for an already-resolved workload — the entry point
// for workloads a Spec cannot name, such as external .profile models
// loaded by cmd/smtsim (s.Workload and s.Seed are ignored in favour of
// w). checks enables per-cycle invariant checking on the machine;
// violations panic, so enable it only in diagnostic runs.
func RunWorkload(ctx context.Context, w workload.Workload, s Spec, sink telemetry.Sink, checks bool) (Result, error) {
	s = s.Normalize()
	if err := s.validateShape(); err != nil {
		return Result{}, err
	}
	if s.Cores > 1 {
		return runMulticore(ctx, w, s, sink, checks)
	}
	m, dist, feedback, err := buildWorkload(w, s)
	if err != nil {
		return Result{}, err
	}
	if checks {
		m.SetInvariantChecks(true)
	}

	label := w.Name() + "/" + dist.Name()
	switch d := dist.(type) {
	case *core.HillClimber:
		d.Trace = sink
		d.TraceLabel = label
	case *core.PhaseHill:
		d.Hill.Trace = sink
		d.Hill.TraceLabel = label
	}
	if sink != nil {
		m.SetRecorder(telemetry.NewRecorder(m.Threads()))
	}

	for i := 0; i < s.Warmup; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		m.CycleN(s.EpochSize)
	}
	r := core.NewRunner(m, dist, feedback)
	r.EpochSize = s.EpochSize
	r.Trace = sink
	r.TraceLabel = label
	if st, ok := dist.(*core.Steepest); ok {
		st.Singles = r.Singles
	}
	for i := 0; i < s.Epochs; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		r.RunEpoch()
	}
	return assemble(s, w, m, r), nil
}

// assemble folds the finished run into the shared Result schema.
func assemble(s Spec, w workload.Workload, m *pipeline.Machine, r *core.Runner) Result {
	ipc := r.TotalsSince(0)
	per := m.PerThreadStats()
	res := Result{
		Workload:  w.Name(),
		Tech:      s.Tech,
		Epochs:    s.Epochs,
		EpochSize: s.EpochSize,
	}
	for th, v := range ipc {
		ts := per[th]
		res.Threads = append(res.Threads, ThreadResult{
			Thread: th, App: w.Apps[th], IPC: v,
			Committed: ts.Committed, Flushed: ts.Flushed, Mispredicts: ts.Mispredicts,
		})
		res.TotalIPC += v
	}
	st := m.Stats()
	res.MispredictRate = m.MispredictRate()
	res.DL1MissRate = m.Mem().DL1.Stats.MissRate()
	res.L2MissRate = m.Mem().UL2.Stats.MissRate()
	res.Flushes = st.Flushes
	res.FinalShares = lastShares(r)
	return res
}

// lastShares returns the most recent partition vector the run adopted,
// or nil when every epoch ran unpartitioned.
func lastShares(r *core.Runner) []int {
	res := r.Results()
	for i := len(res) - 1; i >= 0; i-- {
		if res[i].Shares != nil {
			return append([]int(nil), res[i].Shares...)
		}
	}
	return nil
}
