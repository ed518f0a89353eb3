package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The contract's numbers the selfcheck projects against.
const (
	defaultSeconds  = 20 // = BENCHMARK.json's run_seconds; held equal by a unit test
	contractCapS    = 3420
	contractRunCapS = 180
	contractSpare   = 0.15
)

// child runs one measuring run in a fresh process of this same binary
// and returns its parsed result line. Cancelling ctx kills the child;
// the call always waits for it to end.
func child(ctx context.Context, workload string, seed uint64, trace int) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, contractRunCapS*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(defaultSeconds), "--trace", strconv.Itoa(trace))
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	t0 := time.Now()
	out, err := cmd.Output()
	run := &childRun{wall: time.Since(t0), stderr: errBuf.String()}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w\n%s", workload, seed, trace, err, run.stderr)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: result line: %w", workload, seed, trace, err)
	}
	return run, nil
}

// childRun is one finished measuring run.
type childRun struct {
	result
	wall   time.Duration
	stderr string
}

// calibMS digs the host calibration reading out of an untraced run's
// log line ("... host: calib_ms=3.7154 steal_pct=0.073"); 0 if absent.
func (c *childRun) calibMS() float64 {
	_, rest, ok := strings.Cut(c.stderr, "calib_ms=")
	if !ok {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	return v
}

// interruptible returns a context that ends on the signals that would
// otherwise end this process with a measuring child still running —
// SIGPIPE included, for a reader that closes the pipe early.
func interruptible() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
}

func selectWorkloads(name string) ([]string, error) {
	if name == "" {
		return workloadNames, nil
	}
	if _, err := newWorkload(name); err != nil {
		return nil, err
	}
	return []string{name}, nil
}

// cmdRun runs every workload untraced, then traced, each in a fresh
// process, and prints every metric by name and unit with the machine's
// fingerprint. The traced alg1_sweep process prints the ranked layer
// list itself, on standard error, which is passed through.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "one workload (default: all four)")
	seed := fs.Uint64("seed", 1, "workload seed")
	jsonOut := fs.String("json", "", "also write the results to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark run:", err)
		return 2
	}
	ctx, stop := interruptible()
	defer stop()

	fp := machineFingerprint()
	fmt.Printf("machine: %s\n", fp)
	type runRecord struct {
		Workload string  `json:"workload"`
		Trace    int     `json:"trace"`
		Seed     uint64  `json:"seed"`
		WallS    float64 `json:"wall_s"`
		*result
	}
	doc := struct {
		Machine fingerprint `json:"machine"`
		Seconds int         `json:"seconds"`
		Runs    []runRecord `json:"runs"`
	}{Machine: fp, Seconds: defaultSeconds}
	status := 0
	for _, wl := range names {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			run, err := child(ctx, wl, *seed, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark run:", err)
				return 1
			}
			fmt.Printf("\n%s --trace %d (seed %d, %.1f s wall): correct %t, attempted %d, failed %d\n",
				wl, trace, *seed, run.wall.Seconds(), run.Correct, run.Attempted, run.Failed)
			for _, d := range defs {
				m := run.Metrics[d.Name]
				fmt.Printf("  %-36s %14.6g %-6s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
			}
			// The run's own log: lap counts, the open-loop ladder, and from
			// the traced sweep the ranked list of layers.
			fmt.Print(run.stderr)
			if !run.Correct {
				status = 1
			}
			doc.Runs = append(doc.Runs, runRecord{wl, trace, *seed, run.wall.Seconds(), &run.result})
		}
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark run:", err)
			return 1
		}
	}
	return status
}

// cmdSelfcheck applies the driver's own acceptance check: two sets of
// -runs seeds per workload; for each end-to-end metric the spread of
// each set (interquartile range over median, setup_s excepted) must stay
// within the metric's bound, and the second set's median must not be
// worse than the first's by more than the bound. It then times one traced
// run per workload and projects the driver's whole campaign against the
// contract's time cap.
func cmdSelfcheck(args []string) int {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs (seeds) per set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *runs < 2 {
		fmt.Fprintln(os.Stderr, "benchmark selfcheck: need -runs >= 2")
		return 2
	}
	names := workloadNames
	ctx, stop := interruptible()
	defer stop()

	fmt.Printf("machine: %s\n", machineFingerprint())
	// values[set][workload][metric] = one value per seed
	var values [2]map[string]map[string][]float64
	var runWall []float64
	failedRuns := 0
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, wl := range names {
			values[set][wl] = make(map[string][]float64)
			var calib []float64
			for i := 0; i < *runs; i++ {
				seed := uint64(set**runs + i + 1)
				run, err := child(ctx, wl, seed, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark selfcheck:", err)
					return 1
				}
				if !run.Correct {
					failedRuns++
				}
				runWall = append(runWall, run.wall.Seconds())
				calib = append(calib, run.calibMS())
				for _, d := range endToEnd {
					values[set][wl][d.Name] = append(values[set][wl][d.Name], run.Metrics[d.Name].Value)
				}
			}
			sort.Float64s(calib)
			fmt.Printf("set %d %-15s seeds %d-%d done; host.calib_ms min %.3f median %.3f max %.3f\n",
				set+1, wl, set**runs+1, (set+1)**runs, calib[0], median(calib), calib[len(calib)-1])
		}
	}
	// A traced run does other work (probes, the open-loop ladder, armed
	// laps) and lasts a different time, so it is timed too.
	var tracedWall []float64
	for _, wl := range names {
		run, err := child(ctx, wl, 1, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark selfcheck:", err)
			return 1
		}
		if !run.Correct {
			failedRuns++
		}
		tracedWall = append(tracedWall, run.wall.Seconds())
		fmt.Printf("traced %-15s seed 1 done in %.1f s\n", wl, run.wall.Seconds())
	}

	fmt.Printf("\n%-15s %-16s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median 1", "spread 1", "median 2", "spread 2", "worse", "bound", "verdict")
	status := 0
	for _, wl := range names {
		for _, d := range endToEnd {
			v1, v2 := values[0][wl][d.Name], values[1][wl][d.Name]
			m1, m2 := median(v1), median(v2)
			s1, s2 := spread(v1), spread(v2)
			worse := (m2 - m1) / m1
			if d.Better == higher {
				worse = (m1 - m2) / m1
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "FAIL: second median worse than the bound"
			case d.Name != "setup_s" && max(s1, s2) > d.Bound:
				verdict = "FAIL: spread above the bound"
			case d.Name != "setup_s" && max(s1, s2) > d.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				status = 1
			}
			fmt.Printf("%-15s %-16s %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				wl, d.Name, m1, 100*s1, m2, 100*s2, 100*worse, 100*d.Bound, verdict)
		}
	}
	if failedRuns > 0 {
		fmt.Printf("\n%d runs reported correct=false\n", failedRuns)
		status = 1
	}

	// The driver makes 4 + 22 × W runs and two builds. How many of them
	// are traced is the driver's business, so every run is charged at the
	// slower kind's mean: an upper bound for any mix.
	build := buildSeconds()
	w := len(workloadNames)
	perRun := max(mean(runWall), mean(tracedWall))
	total := float64(4+22*w)*perRun + 2*build
	slowest := max(slices.Max(runWall), slices.Max(tracedWall))
	fmt.Printf("\nuntraced runs took mean %.1f s, traced runs mean %.1f s, slowest of either %.1f s (cap per run %d s); cold build %.0f s\n",
		mean(runWall), mean(tracedWall), slowest, contractRunCapS, build)
	fmt.Printf("projected campaign, every run charged at the slower kind: (4 + 22 × %d) runs × %.1f s + 2 builds × %.0f s = %.0f s of %d s, %.0f%% to spare (want >= %.0f%%)\n",
		w, perRun, build, total, contractCapS, 100*(1-total/contractCapS), 100*contractSpare)
	if total > contractCapS*(1-contractSpare) || slowest > contractRunCapS {
		fmt.Println("FAIL: the campaign does not fit the contract's time cap with the spare asked for")
		status = 1
	}
	return status
}

// buildSeconds is the cold build's duration as run.sh recorded it, or a
// cautious guess when the binary was built some other way.
func buildSeconds() float64 {
	b, err := os.ReadFile(filepath.Join(buildDir, "build_seconds"))
	if err == nil {
		if v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64); err == nil && v > 0 {
			return v
		}
	}
	return 120
}
