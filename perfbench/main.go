// Command perfbench is the repository benchmark. It runs one named
// workload against the shipped binaries (esteem-bench, esteem-serve),
// checks their outputs, and prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// per-layer set, measured from the benchmark's own code by timing calls
// into each layer's public functions (see README.md). The workload seed
// is an argument of the benchmark; the programs under test receive only
// the inputs generated from it.
//
// Run it through run.sh, which builds everything under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// env is what every workload needs to know about its run.
type env struct {
	root    string // repository root (the checkout)
	build   string // .bench_build: binaries and run directories
	seed    int64
	seconds time.Duration
	// jobs is nproc, the programs' simulation workers. runtime.NumCPU
	// honours the CPU affinity mask, so a run under `taskset -c 0` holds
	// the programs (and their default GOMAXPROCS) to one CPU.
	jobs int
	// rate overrides serve-mix's fixed offered rate (0 = default).
	rate float64
}

func (e *env) bin(name string) string { return filepath.Join(e.build, "bin", name) }

// workDir returns a fresh directory under .bench_build for one run.
func (e *env) workDir(name string) (string, error) {
	dir := filepath.Join(e.build, "runs", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), time.Now().UnixNano()))
	return dir, os.MkdirAll(dir, 0o755)
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// run measures the end-to-end metrics; traced the per-layer ones.
	run    func(*env) (result, error)
	traced func(*env) (result, error)
}

var workloads = []workload{
	{"sweep-1core", func(e *env) (result, error) { return runSweep(e, sweep1core) },
		func(e *env) (result, error) { return tracedSweep(e, sweep1core) }},
	{"sweep-2core", func(e *env) (result, error) { return runSweep(e, sweep2core) },
		func(e *env) (result, error) { return tracedSweep(e, sweep2core) }},
	{"serve-mix", runServe, tracedServe},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		e       env
		name    string
		seconds int
		traced  int
	)
	flag.StringVar(&e.root, "root", ".", "repository root")
	flag.StringVar(&e.build, "build", ".bench_build", "build and run directory")
	flag.StringVar(&name, "workload", "", "workload: sweep-1core, sweep-2core or serve-mix")
	flag.Int64Var(&e.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&traced, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Float64Var(&e.rate, "rate", 0, "self-test: serve-mix fixed offered rate in requests/s (0 = default)")
	flag.Parse()
	e.seconds = time.Duration(seconds) * time.Second
	e.jobs = runtime.NumCPU()

	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil || seconds <= 0 || (traced != 0 && traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload sweep-1core|sweep-2core|serve-mix, -seconds > 0, -trace 0|1 (got %q, %d, %d)\n", name, seconds, traced)
		os.Exit(2)
	}
	run := w.run
	if traced == 1 {
		run = w.traced
	}
	res, err := run(&e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
