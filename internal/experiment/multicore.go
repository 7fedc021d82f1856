package experiment

import (
	"fmt"
	"strings"

	"smthill/internal/multicore"
	"smthill/internal/simjob"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// The mcpair experiment compares thread-to-core allocation policies on
// the multi-core system (internal/multicore): M 2-context SMT cores
// behind a shared L3, each running its own hill-climber, with the outer
// pairing policy re-grouping threads at reallocation points. The
// comparison axis is the pairing policy — random (the control arm),
// ipc-pred, and stall-pred — scored by aggregate IPC.

// MulticoreWorkloads returns the workload set for an M-core run: mixes
// of 2*M applications spanning the ILP/MEM spectrum, built from the
// same Table 2 applications as the single-core experiments.
func MulticoreWorkloads(cores int) []workload.Workload {
	var lists []string
	switch cores {
	case 2:
		lists = []string{
			"art,mcf,fma3d,gcc",
			"gzip,twolf,bzip2,mcf",
			"swim,twolf,gzip,vortex",
		}
	case 4:
		lists = []string{
			"art,mcf,fma3d,gcc,gzip,twolf,bzip2,mesa",
			"swim,lucas,vortex,gap,equake,parser,crafty,applu",
		}
	default:
		panic(fmt.Sprintf("experiment: no multicore workload set for %d cores", cores))
	}
	out := make([]workload.Workload, len(lists))
	for i, l := range lists {
		w, err := workload.Parse(l)
		if err != nil {
			panic(err)
		}
		out[i] = w
	}
	return out
}

// mcpairSpec builds the simjob spec for one multi-core pairing run: a
// HILL-WIPC techSpec on cores cores. The workload travels as the
// comma-separated application list, the one spelling workload.Parse
// accepts for any mix. Seed stays 0, so workload, geometry, core count
// and pairing policy fully determine the result.
func mcpairSpec(cfg Config, w workload.Workload, cores int, pairing string) simjob.Spec {
	s := techSpec(cfg, w, "HILL-WIPC")
	s.Workload = strings.Join(w.Apps, ",")
	s.Cores, s.Pairing = cores, pairing
	return s
}

// McPair runs every pairing policy over the multicore workload sets of
// the given core counts and returns one row per (core count, workload)
// with aggregate IPC per policy. Rows group as "<M>core".
func McPair(cfg Config, coreCounts []int) []CompareRow {
	var jobs []sweep.Job[simjob.Result]
	for _, cores := range coreCounts {
		for _, w := range MulticoreWorkloads(cores) {
			for _, pairing := range multicore.PairingNames() {
				jobs = append(jobs, simjob.Job(mcpairSpec(cfg, w, cores, pairing), tele))
			}
		}
	}
	res := mustRun(jobs)
	var rows []CompareRow
	for _, cores := range coreCounts {
		for _, w := range MulticoreWorkloads(cores) {
			row := CompareRow{
				Workload: w.Name(),
				Group:    fmt.Sprintf("%dcore", cores),
				Scores:   map[string]float64{},
			}
			for _, pairing := range multicore.PairingNames() {
				row.Scores[pairing] = res[mcpairSpec(cfg, w, cores, pairing).Key()].TotalIPC
			}
			rows = append(rows, row)
		}
	}
	return rows
}
