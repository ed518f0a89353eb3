//go:build !amd64

package tensor

import "testing"

// eachKernelPath runs body once: off amd64, useAVX is the constant false
// and the Go bodies are the only kernels there are.
func eachKernelPath(t *testing.T, body func(t *testing.T)) {
	body(t)
}
