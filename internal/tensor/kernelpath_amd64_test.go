package tensor

import "testing"

// eachKernelPath runs body twice: on the kernels this process uses, then
// with useAVX switched off, on the Go bodies that builds without AVX
// compute with — on an AVX host the only way to run them. useAVX is a
// package variable, so body must not call t.Parallel.
func eachKernelPath(t *testing.T, body func(t *testing.T)) {
	t.Run("kernels=build", body)
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	t.Run("kernels=go", body)
}
