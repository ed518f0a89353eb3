package tensor

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// eachKernelPath runs body on every kernel tier the host has: on the
// kernels this process uses, then with useAVX512 switched off, on the
// ymm tier, then with useAVX off too, on the Go bodies that builds
// without AVX compute with — on a wider host the only way to run the
// narrower tiers. On a host without AVX-512F the kernels=avx2 subtest
// would repeat kernels=build and is skipped. The gates are package
// variables, so body must not call t.Parallel.
func eachKernelPath(t *testing.T, body func(t *testing.T)) {
	t.Run("kernels=build", body)
	savedAVX, savedAVX512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = savedAVX, savedAVX512 }()
	useAVX512 = false
	t.Run("kernels=avx2", func(t *testing.T) {
		if !savedAVX512 {
			t.Skip("no AVX-512F: kernels=build ran the ymm tier")
		}
		body(t)
	})
	useAVX = false
	t.Run("kernels=go", body)
}

// TestKernelTierMatchesCPU holds the CPUID probes to the kernel's view of
// the CPU: on Linux, useAVX must equal "avx" and useAVX512 "avx512f" in
// the flags of /proc/cpuinfo (which the kernel clears when the OS does
// not save the state), so a broken probe cannot silently switch a tier
// off or on. The log line names the tier, so a host without AVX-512F
// says that its run left the zmm kernels untested.
func TestKernelTierMatchesCPU(t *testing.T) {
	t.Logf("kernel tier: %s", KernelTier())
	if !useAVX512 {
		t.Log("no AVX-512F on this host: the zmm kernels were not run")
	}
	if runtime.GOOS != "linux" {
		t.Skip("CPU flags are read from /proc/cpuinfo")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if flags == nil {
		t.Fatal("no flags line in /proc/cpuinfo")
	}
	for _, c := range []struct {
		flag string
		gate bool
	}{{"avx", useAVX}, {"avx512f", useAVX512}} {
		if has := slices.Contains(flags, c.flag); has != c.gate {
			t.Errorf("%s in /proc/cpuinfo flags: %v; the kernel gate says %v", c.flag, has, c.gate)
		}
	}
}
