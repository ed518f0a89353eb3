// Command benchmark is this repository's benchmark: four workloads made
// of short identical laps, six end-to-end metrics, and a traced run that
// times calls into each layer's public functions from outside. See
// README.md in this directory for every name it emits.
//
//	benchmark --workload w --seed n --seconds s --trace 0|1   one measuring run (what BENCHMARK.json's command does)
//	benchmark run [-workload w] [-seed n] [-json out]
//	benchmark selfcheck [-runs 10]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// buildDir is where the benchmark keeps everything it writes, relative
// to the checkout root it is started from.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(cmdRun(os.Args[2:]))
		case "selfcheck":
			os.Exit(cmdSelfcheck(os.Args[2:]))
		}
	}
	os.Exit(cmdMeasure(os.Args[1:]))
}

// cmdMeasure is one measuring run. The result line is the last line of
// standard output; everything else goes to standard error.
func cmdMeasure(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: alg1_sweep, pgd_curves, serve_requests or stream_session")
	seed := fs.Uint64("seed", 1, "draws the traffic: evaluation samples, request order, PGD start noise, event stream")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced laps and probes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		spanPath := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		res, err = measureTraced(w, *seed, budget, spanPath, os.Stderr)
	} else {
		res, err = measure(w, *seed, budget, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := res.writeLine(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
