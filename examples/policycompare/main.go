// Policycompare: run the same multiprogrammed workload under every
// resource distribution technique and compare end performance — a
// miniature of the paper's Figure 9.
//
//	go run ./examples/policycompare [workload]
package main

import (
	"context"
	"fmt"
	"os"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/simjob"
	"smthill/internal/workload"
)

const (
	epochs = 40
	warmup = 2
)

func main() {
	name := "art-gzip"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	w := workload.ByName(name)

	// Stand-alone reference IPCs for the weighted-IPC end metric.
	singles := make([]float64, w.Threads())
	for i, app := range w.Apps {
		solo := workload.Workload{Apps: []string{app}}
		sm := solo.NewMachine(nil)
		sm.CycleN(8 * core.DefaultEpochSize)
		singles[i] = float64(sm.Committed(0)) / float64(8*core.DefaultEpochSize)
		fmt.Printf("%-8s stand-alone IPC %6.3f\n", app, singles[i])
	}
	fmt.Println()

	fmt.Printf("%-10s %10s %10s\n", "technique", "sum IPC", "wIPC")
	for _, tech := range []string{"ICOUNT", "STALL", "FLUSH", "DCRA", "STATIC", "HILL-WIPC"} {
		res, err := simjob.Run(context.Background(),
			simjob.Spec{Workload: name, Tech: tech, Epochs: epochs, Warmup: warmup}, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ipc := make([]float64, len(res.Threads))
		for i, th := range res.Threads {
			ipc[i] = th.IPC
		}
		fmt.Printf("%-10s %10.3f %10.3f\n", tech, res.TotalIPC, metrics.WeightedIPC.Eval(ipc, singles))
	}
}
