package compute

import "testing"

func TestUseSparse(t *testing.T) {
	defer SetDispatchMode(DispatchAdaptive)

	for _, tc := range []struct {
		f       KernelFamily
		density float64
		want    bool
	}{
		{KernelMatMul, 0, true},
		{KernelMatMul, 0.08, true}, // at the threshold: sparse
		{KernelMatMul, 0.09, false},
		{KernelConv, 0.02, true},
		{KernelConv, 0.03, false},
		{KernelPool, 1, true}, // pool threshold 1: always sparse
	} {
		if got := UseSparse(tc.f, tc.density); got != tc.want {
			t.Errorf("UseSparse(%v, %g) = %v, want %v", tc.f, tc.density, got, tc.want)
		}
	}
	if !PackSpikePlanes() {
		t.Error("adaptive mode must keep producers packing")
	}

	SetDispatchMode(DispatchSparse)
	if !UseSparse(KernelMatMul, 1) || !PackSpikePlanes() {
		t.Error("DispatchSparse must force the spike kernels")
	}

	SetDispatchMode(DispatchDense)
	if UseSparse(KernelMatMul, 0) || PackSpikePlanes() {
		t.Error("DispatchDense must force the dense kernels and stop packing")
	}
}
