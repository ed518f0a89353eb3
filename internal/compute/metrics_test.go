package compute

import (
	"testing"

	"snnsec/internal/obs"
)

func TestDispatchCounters(t *testing.T) {
	obs.Arm()
	t.Cleanup(obs.Disarm)
	defer SetDispatchMode(DispatchAdaptive)

	before := [len(dispatchCounters)][2]uint64{}
	for f := range dispatchCounters {
		for i := range dispatchCounters[f] {
			before[f][i] = dispatchCounters[f][i].Value()
		}
	}
	if !UseSparse(KernelMatMul, 0.01) {
		t.Fatal("low density should dispatch sparse")
	}
	if UseSparse(KernelMatMul, 0.99) {
		t.Fatal("high density should dispatch dense")
	}
	UseSparse(KernelConv, 0.01)
	UseSparse(KernelPool, 0.5)
	if got := dispatchCounters[KernelMatMul][1].Value() - before[KernelMatMul][1]; got != 1 {
		t.Errorf("matmul sparse count = %d, want 1", got)
	}
	if got := dispatchCounters[KernelMatMul][0].Value() - before[KernelMatMul][0]; got != 1 {
		t.Errorf("matmul dense count = %d, want 1", got)
	}
	if got := dispatchCounters[KernelConv][1].Value() - before[KernelConv][1]; got != 1 {
		t.Errorf("conv sparse count = %d, want 1", got)
	}
	if got := dispatchCounters[KernelPool][1].Value() - before[KernelPool][1]; got != 1 {
		t.Errorf("pool sparse count = %d, want 1", got)
	}
	// Out-of-range families must not panic, and count nothing: the three
	// families' series hold the four decisions made above and no more.
	countDispatch(KernelFamily(len(dispatchCounters)), true)
	countDispatch(KernelFamily(99), true)
	var total uint64
	for f := range dispatchCounters {
		for i := range dispatchCounters[f] {
			total += dispatchCounters[f][i].Value() - before[f][i]
		}
	}
	if len(dispatchCounters) != 3 || total != 4 {
		t.Errorf("%d families counted %d decisions, want 3 families and 4 decisions", len(dispatchCounters), total)
	}
}
