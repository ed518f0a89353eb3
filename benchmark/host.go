package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// fingerprint names the machine a result set was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	AVX2       bool   `json:"avx2"`
	FMA        bool   `json:"fma"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return fp
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			fp.CPU = strings.TrimSpace(val)
		case "flags":
			for _, fl := range strings.Fields(val) {
				fp.AVX2 = fp.AVX2 || fl == "avx2"
				fp.FMA = fp.FMA || fl == "fma"
			}
			return fp // one core's entry is enough
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, avx2 %t, fma %t",
		fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.Go, fp.AVX2, fp.FMA)
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks is the host-wide "cpu" line of /proc/stat: all jiffies and the
// stolen ones among them.
type cpuTicks struct{ total, steal float64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of host CPU time stolen by the hypervisor between
// two readings — the host's doing, not the program's.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}

var calibSink float64

// calibrate times a fixed pure-Go loop (no allocation, no program code)
// and returns milliseconds. Two result sets whose host.calib_ms differ
// were measured on a host in different moods.
func calibrate() float64 {
	t0 := time.Now()
	x, y := 1.0, uint64(88172645463325252)
	for i := 0; i < 1_500_000; i++ {
		y ^= y << 13
		y ^= y >> 7
		y ^= y << 17
		x = x*0.999999 + float64(y&1023)*1e-9
	}
	calibSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// gcReading is what the runtime has spent collecting so far.
type gcReading struct {
	cycles   uint64
	gcCPU    float64 // seconds
	totalCPU float64 // seconds, all of the process's CPU classes
}

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return gcReading{
		cycles:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// hostReading brackets a run's laps with the two readings that are the
// host's and not the program's, so a reader of two result sets can tell
// a host spell from a code change.
type hostReading struct {
	calib []float64
	ticks cpuTicks
}

const calibReps = 5

func beginHostReading() *hostReading {
	h := &hostReading{}
	for i := 0; i < calibReps; i++ {
		h.calib = append(h.calib, calibrate())
	}
	h.ticks = readCPUTicks()
	return h
}

// end returns the median of the calibration loop's timings before and
// after, and the share of host CPU time stolen in between.
func (h *hostReading) end() (calibMS, steal float64) {
	steal = stealPct(h.ticks, readCPUTicks())
	for i := 0; i < calibReps; i++ {
		h.calib = append(h.calib, calibrate())
	}
	return median(h.calib), steal
}
