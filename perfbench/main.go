// Command perfbench is the repository benchmark. It drives the simulator
// end to end through its public Go API, one workload per process, and
// prints one JSON object as the last line of standard output:
//
//	perfbench --workload fig4-offline --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, which also
// writes its spans and CPU profile under --out. README.md maps every
// layer metric to the end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", 20, "measurement budget in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench-trace"), "directory the traced run writes spans and its CPU profile to")
	)
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}

	r := newRun(wl.name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err := wl.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if r.traced {
		path, err := r.spans.writeFile(*out, wl.name, *seed, r.profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			os.Exit(1)
		}
		r.notef("trace written to %s", path)
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
