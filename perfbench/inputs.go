package main

import (
	"math/rand/v2"
	"slices"

	"smthill/internal/multicore"
	"smthill/internal/simjob"
	"smthill/internal/workload"
)

// inputs is everything a run feeds the program, generated from the seed
// alone: the same seed gives the same inputs, and the program sees
// nothing else.
type inputs struct {
	// Fig4 and Fig9 are the two figure workloads' rows: every workload of
	// their groups, in seed-shuffled order.
	Fig4, Fig9 []string
	// Serve is the serve-jobs spec sequence one round submits; ServeWarm
	// is the set-up's one warm-up job per class.
	Serve, ServeWarm []serveSpec
	// Fabric holds fabricOrders seed-shuffled orders of every Table 3
	// workload; fabric round i runs Fabric[i%fabricOrders].
	Fabric [][]string
	// ProbeILP2 and ProbeMEM2 are the machines the traced run's isolated
	// pipeline probes cycle: the first ILP2 and MEM2 rows of Fig4.
	ProbeILP2, ProbeMEM2 string
}

// fig4Groups are the groups OFF-LINE's figure covers: it enumerates
// partitions of two threads only.
var fig4Groups = []string{"ILP2", "MIX2", "MEM2"}

// fabricOrders is how many submission orders fabric-fig9 cycles through.
// The order decides how often the coordinator's two in-flight jobs are
// owned by the same worker and queue behind each other, so one fixed
// order moves wall_s by about 10% from seed to seed. A new order every
// round makes a run's median an average over orders instead.
const fabricOrders = 8

// serve-jobs spec classes.
const (
	classShort     = "short"
	classMulticore = "multicore"
	classSteep     = "steep"
	classResubmit  = "resubmit"
)

// serveSpec is one job of the serve-jobs sequence. Of is the index of the
// original spec a resubmission repeats (-1 otherwise).
type serveSpec struct {
	Class string
	Of    int
	Spec  simjob.Spec
}

// serveEpochSize keeps serve-jobs' jobs small enough that admission,
// queueing, JSON, the SSE hub and the recorder are a visible share of
// their latency.
const serveEpochSize = 4096

// Per round, serve-jobs submits every Table 3 workload once as a short
// job (42, 70%), six 2-core jobs (10%), three STEEP-WIPC jobs (5%) and
// nine resubmissions (15%): 60 jobs. The class shares are fixed, the
// short jobs cover all 42 workloads on every seed and split evenly over
// ICOUNT, DCRA and HILL-WIPC, so the seed moves the order, the technique
// each workload gets, the 2-core picks and the simjob seeds but barely
// the amount of work.
const (
	serveMulticorePerGroup = 2 // from each 4-thread group
	serveResubmits         = 9
)

// serveSteep are the STEEP-WIPC jobs' workloads. STEEP probes a fixed
// 64K cycles per decision whatever the epoch size, so one STEEP job
// costs 10-30 short jobs and STEEP jobs (with the jobs queued behind
// them) form the latency tail. The workloads are fixed, MEM2 ones, so
// the seed cannot move the p95 by picking an ILP workload that
// simulates four times slower.
var serveSteep = []string{"art-mcf", "swim-twolf", "art-vpr"}

// newInputs derives every input of a run from seed. Each workload's
// inputs come from their own stream, so changing one generator never
// shifts another's.
func newInputs(seed uint64) inputs {
	stream := func(id uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, id)) }
	var in inputs
	in.Fig4 = shuffled(stream(1), fig4Groups)
	in.Fig9 = shuffled(stream(2), workload.Groups())
	in.Serve, in.ServeWarm = serveSequence(stream(3))
	fab := stream(4)
	for range fabricOrders {
		in.Fabric = append(in.Fabric, shuffled(fab, workload.Groups()))
	}
	for _, n := range in.Fig4 {
		switch g := workload.ByName(n).Group; {
		case g == "ILP2" && in.ProbeILP2 == "":
			in.ProbeILP2 = n
		case g == "MEM2" && in.ProbeMEM2 == "":
			in.ProbeMEM2 = n
		}
	}
	return in
}

// shuffled returns every workload of groups in an order drawn from rng.
//
// The figure workloads run every workload of their groups, not a
// seed-chosen few. Simulated-cycle cost varies up to 3x inside a group
// (MIX2 spans 0.2-0.8 µs per cycle, ILP2 1.8-2.4 µs on a 2-CPU host), so
// picking even three per group moved wall_s by about 9% from seed to
// seed, a third of the bound. The seed orders the rows instead; the order
// costs nothing on a one-worker engine, so the seed cannot move the work.
func shuffled(rng *rand.Rand, groups []string) []string {
	var out []string
	for _, g := range groups {
		out = append(out, names(workload.ByGroup(g))...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func names(ws []workload.Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name()
	}
	return out
}

// pick picks k distinct workloads of group, in Table 3 order.
func pick(rng *rand.Rand, group string, k int) []string {
	ws := workload.ByGroup(group)
	idx := rng.Perm(len(ws))[:k]
	slices.Sort(idx)
	out := make([]string, k)
	for j, i := range idx {
		out[j] = ws[i].Name()
	}
	return out
}

// serveSequence builds one round's spec sequence and the set-up's
// warm-up jobs. Every spec except a resubmission gets its own simjob
// seed, so the only memo hits in a round are the resubmissions.
func serveSequence(rng *rand.Rand) (seq, warm []serveSpec) {
	seeds := map[uint64]bool{}
	nextSeed := func() uint64 {
		for {
			s := rng.Uint64()
			if s != 0 && !seeds[s] {
				seeds[s] = true
				return s
			}
		}
	}
	techs := []string{"ICOUNT", "DCRA", "HILL-WIPC"}
	// 2T+1 epochs: T SingleIPC samples, then one full round of T trial
	// directions and its decision.
	short := func(w workload.Workload, tech string) serveSpec {
		return serveSpec{Class: classShort, Of: -1, Spec: simjob.Spec{
			Workload: w.Name(), Tech: tech, Epochs: 2*w.Threads() + 1,
			EpochSize: serveEpochSize, Warmup: 1, Seed: nextSeed(),
		}}
	}
	// A 2-core job re-pairs its threads every DefaultAllocEvery epochs;
	// one epoch more than that lets it re-pair once, so migrations can
	// happen.
	twoCore := func(w workload.Workload) serveSpec {
		return serveSpec{Class: classMulticore, Of: -1, Spec: simjob.Spec{
			Workload: w.Name(), Tech: "HILL-WIPC", Epochs: multicore.DefaultAllocEvery + 1, EpochSize: serveEpochSize,
			Warmup: 1, Seed: nextSeed(), Cores: 2,
		}}
	}
	steep := func(w workload.Workload) serveSpec {
		return serveSpec{Class: classSteep, Of: -1, Spec: simjob.Spec{
			Workload: w.Name(), Tech: "STEEP-WIPC", Epochs: w.Threads() + 1,
			EpochSize: serveEpochSize, Warmup: 1, Seed: nextSeed(),
		}}
	}

	// Each technique runs a third of the short jobs: the seed decides
	// which workload runs which, not how many run HILL-WIPC.
	all := workload.All()
	tech := make([]string, len(all))
	for i := range tech {
		tech[i] = techs[i%len(techs)]
	}
	rng.Shuffle(len(tech), func(i, j int) { tech[i], tech[j] = tech[j], tech[i] })
	var base []serveSpec
	for i, w := range all {
		base = append(base, short(w, tech[i]))
	}
	for _, g := range []string{"ILP4", "MIX4", "MEM4"} {
		for _, name := range pick(rng, g, serveMulticorePerGroup) {
			base = append(base, twoCore(workload.ByName(name)))
		}
	}
	for _, name := range serveSteep {
		base = append(base, steep(workload.ByName(name)))
	}
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })

	// Resubmissions go to distinct positions from firstResubmit on and
	// repeat a short or 2-core spec submitted at least minLead jobs
	// earlier, so the original is always finished or queued ahead of its
	// repeat. The first firstResubmit-minLead+1 positions hold at most the
	// three STEEP jobs, so a short or 2-core original always exists.
	const firstResubmit, minLead = 10, 3
	total := len(base) + serveResubmits
	at := map[int]bool{}
	for len(at) < serveResubmits {
		at[firstResubmit+rng.IntN(total-firstResubmit)] = true
	}
	for i, next := 0, 0; i < total; i++ {
		if !at[i] {
			seq = append(seq, base[next])
			next++
			continue
		}
		for {
			j := rng.IntN(i - minLead + 1)
			if c := seq[j].Class; c == classShort || c == classMulticore {
				seq = append(seq, serveSpec{Class: classResubmit, Of: j, Spec: seq[j].Spec})
				break
			}
		}
	}

	two, four := workload.ByGroup("MEM2")[0], workload.ByGroup("MEM4")[0]
	w0 := short(two, "HILL-WIPC")
	warm = []serveSpec{w0, twoCore(four), steep(two), {Class: classResubmit, Of: 0, Spec: w0.Spec}}
	return seq, warm
}
