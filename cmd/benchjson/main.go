// Command benchjson is the benchmark-trajectory harness: it runs the
// repo's hot-loop benchmarks (the SimulatorSpeed single-core cycle
// loop, the 2-core MultiCoreCyclesPerSec loop, the K=8 MachineBatch
// lock-step loop and its sequential baseline, Checkpoint), parses the
// standard `go test -bench` output, and emits a
// stable JSON artifact (BENCH_PR<N>.json) so per-PR performance becomes
// a tracked, diffable file instead of folklore.
//
// Two modes:
//
//	benchjson -out BENCH_PR5.json            # measure and record
//	benchjson -gate -old BENCH_PR4.json -new BENCH_PR5.json -tol 0.25
//
// The gate fails (exit 1) when any benchmark's ns/op regressed beyond
// the tolerance versus the committed previous file, or when allocs/op
// increased at all — allocation counts are deterministic, so they get
// no slack. Improvements are reported either way.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark's measured numbers.
type Result struct {
	// NsPerOp is time per operation (for the cycle-loop benchmarks one
	// op is one simulated cycle).
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from -benchmem.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// CyclesPerSec is the benchmark's own cycles_per_sec metric when it
	// reports one, else 1e9/NsPerOp for the cycle-loop benchmarks.
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
}

// File is the on-disk artifact schema.
type File struct {
	// Note describes how to regenerate the file, plus any per-PR
	// measurement context passed via -note.
	Note string `json:"note"`
	// BatchCyclesPerSec is the headline batched-simulation metric: the
	// aggregate member-cycles/sec of the K=8 MachineBatch loop.
	BatchCyclesPerSec float64 `json:"batch_cycles_per_sec,omitempty"`
	// BatchSpeedupX is BatchCyclesPerSec over the sequential-clone
	// baseline's cycles/sec — the measured batching speedup on the
	// host that generated the file.
	BatchSpeedupX float64 `json:"batch_speedup_x,omitempty"`
	// Benchmarks maps the short benchmark name (without the Benchmark
	// prefix or -cpu suffix) to its result.
	Benchmarks map[string]Result `json:"benchmarks"`
}

// tracked lists the benchmarks the trajectory follows, and whether one
// benchmark op is one simulated cycle (so cycles/sec is derivable).
var tracked = []struct {
	name      string
	cycleLoop bool
}{
	{"SimulatorSpeed", true},
	{"MultiCoreCyclesPerSec", true},
	{"MachineBatchCyclesPerSec", true},
	{"MachineBatchSequentialBaseline", true},
	{"Checkpoint", false},
}

func main() {
	var (
		out       = flag.String("out", "", "write measured results to this JSON file")
		gate      = flag.Bool("gate", false, "compare -new against -old instead of measuring")
		oldPath   = flag.String("old", "", "gate: previous (committed) JSON file")
		newPath   = flag.String("new", "", "gate: freshly measured JSON file")
		tol       = flag.Float64("tol", 0.25, "gate: allowed fractional ns/op regression")
		benchtime = flag.String("benchtime", "1s", "benchtime passed to go test")
		count     = flag.Int("count", 1, "count passed to go test (best run is kept)")
		note      = flag.String("note", "", "per-PR context appended to the artifact's note field")
	)
	flag.Parse()

	if *gate {
		if err := runGate(*oldPath, *newPath, *tol); err != nil {
			fmt.Fprintln(os.Stderr, "bench-gate:", err)
			os.Exit(1)
		}
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: need -out or -gate")
		os.Exit(2)
	}
	f, err := measure(*benchtime, *count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *note != "" {
		f.Note += " | " + *note
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, t := range tracked {
		r := f.Benchmarks[t.name]
		fmt.Printf("  %-26s %12.1f ns/op %10.0f B/op %6.0f allocs/op", t.name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if r.CyclesPerSec > 0 {
			fmt.Printf(" %12.0f cycles/sec", r.CyclesPerSec)
		}
		fmt.Println()
	}
}

// benchPattern selects exactly the tracked benchmarks.
func benchPattern() string {
	names := make([]string, len(tracked))
	for i, t := range tracked {
		names[i] = "Benchmark" + t.name
	}
	return "^(" + strings.Join(names, "|") + ")$"
}

// measure runs the tracked benchmarks and parses the best (lowest
// ns/op) of count runs per benchmark.
func measure(benchtime string, count int) (*File, error) {
	args := []string{
		"test", "-run", "^$",
		"-bench", benchPattern(),
		"-benchmem",
		"-benchtime", benchtime,
		"-count", strconv.Itoa(count),
		".",
	}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, buf.String())
	}
	f := &File{
		Note:       "benchmark trajectory artifact; regenerate with `make bench-json`",
		Benchmarks: map[string]Result{},
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := f.Benchmarks[name]; !seen || r.NsPerOp < prev.NsPerOp {
			f.Benchmarks[name] = r
		}
	}
	for _, t := range tracked {
		r, ok := f.Benchmarks[t.name]
		if !ok {
			return nil, fmt.Errorf("benchmark %s missing from output:\n%s", t.name, buf.String())
		}
		if t.cycleLoop && r.CyclesPerSec == 0 && r.NsPerOp > 0 {
			r.CyclesPerSec = 1e9 / r.NsPerOp
			f.Benchmarks[t.name] = r
		}
	}
	f.BatchCyclesPerSec = f.Benchmarks["MachineBatchCyclesPerSec"].CyclesPerSec
	if seq := f.Benchmarks["MachineBatchSequentialBaseline"].CyclesPerSec; seq > 0 {
		f.BatchSpeedupX = f.BatchCyclesPerSec / seq
	}
	return f, nil
}

// benchLine matches `BenchmarkName-8   123  456 ns/op  7 B/op  8 allocs/op ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseLine extracts one benchmark result line, tolerating custom
// metrics in any order.
func parseLine(line string) (string, Result, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return "", Result{}, false
	}
	name := strings.TrimPrefix(m[1], "Benchmark")
	known := false
	for _, t := range tracked {
		if t.name == name {
			known = true
		}
	}
	if !known {
		return "", Result{}, false
	}
	var r Result
	fields := strings.Fields(m[2])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		case "cycles/sec":
			r.CyclesPerSec = v
		}
	}
	return name, r, r.NsPerOp > 0
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runGate compares new against old and fails on regression: ns/op may
// drift up to tol (timing is noisy), allocs/op may not grow at all.
func runGate(oldPath, newPath string, tol float64) error {
	if oldPath == "" || newPath == "" {
		return fmt.Errorf("need -old and -new")
	}
	oldF, err := load(oldPath)
	if err != nil {
		return err
	}
	newF, err := load(newPath)
	if err != nil {
		return err
	}
	bad := 0
	for _, t := range tracked {
		o, okO := oldF.Benchmarks[t.name]
		n, okN := newF.Benchmarks[t.name]
		if !okN {
			fmt.Printf("%-26s missing from %s\n", t.name, newPath)
			bad++
			continue
		}
		if !okO {
			// A benchmark added after the old baseline was captured has
			// nothing to regress against; report it and move on.
			fmt.Printf("%-26s %12s -> %12.1f ns/op  new benchmark (no baseline)\n", t.name, "-", n.NsPerOp)
			continue
		}
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		status := "ok"
		switch {
		case n.NsPerOp > o.NsPerOp*(1+tol):
			status = "REGRESSED"
			bad++
		case delta < 0:
			status = "improved"
		}
		fmt.Printf("%-26s %12.1f -> %12.1f ns/op (%+6.1f%%)  %s\n",
			t.name, o.NsPerOp, n.NsPerOp, 100*delta, status)
		if n.AllocsPerOp > o.AllocsPerOp {
			fmt.Printf("%-26s allocs/op grew %.0f -> %.0f: REGRESSED\n", t.name, o.AllocsPerOp, n.AllocsPerOp)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond tolerance %.0f%%", bad, 100*tol)
	}
	return nil
}
