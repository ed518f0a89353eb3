package obs

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// version and kernels hold the module version and the kernel tier the
// CLI stamps in at startup (SetVersion, SetKernels). Library embedders
// that never call them report "unknown" — the honest value, since the
// library cannot know which module wrapped it, nor which kernels it
// linked.
var version, kernels atomic.Pointer[string]

func init() {
	v := "unknown"
	version.Store(&v)
	kernels.Store(&v)
	// snnsec_build_info resolves its labels at scrape time, so the
	// version label is correct even though SetVersion runs after
	// package init.
	NewInfoFunc("snnsec_build_info",
		"Build and runtime identity: module version, Go version, GOARCH, kernel tier. Value is always 1.",
		func() map[string]string {
			return map[string]string{
				"version":   Version(),
				"goversion": runtime.Version(),
				"goarch":    runtime.GOARCH,
				"kernels":   Kernels(),
			}
		})
}

// SetVersion records the module version reported by -version, /healthz
// and snnsec_build_info.
func SetVersion(v string) { version.Store(&v) }

// Version returns the recorded module version.
func Version() string { return *version.Load() }

// SetKernels records the kernel tier — "avx512", "avx2" or "go", as
// tensor.KernelTier names it — reported by -version and
// snnsec_build_info, so that a timing names the instructions that
// produced it. obs does not import tensor; the CLI passes the name.
func SetKernels(tier string) { kernels.Store(&tier) }

// Kernels returns the recorded kernel tier.
func Kernels() string { return *kernels.Load() }

// BuildString renders the one-line build identity the -version flag
// prints: version, Go toolchain, OS/arch, kernel tier.
func BuildString() string {
	return fmt.Sprintf("%s %s %s/%s kernels=%s", Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH, Kernels())
}
