package tensor

import (
	"math/rand/v2"
	"testing"
)

// TestScatterSpikesMatchesPackSpikes pins the event scatter-pack kernel
// to the reference packer: scattering a set of element indices must
// produce the same bits, counts and dense view as PackSpikes of the
// equivalent dense 0/1 plane — including duplicate indices, ragged tail
// words (cols not a multiple of 64) and empty index lists.
func TestScatterSpikesMatchesPackSpikes(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 7))
	shapes := [][]int{
		{1, 1, 9, 9}, // streaming input plane, ragged tail
		{3, 130},     // multi-row, two-and-a-bit words per row
		{2, 64},      // exact word boundary
		{4, 5, 5},    // trailing dims folded into cols
		{1, 1},       // minimal
	}
	for _, shape := range shapes {
		n := 1
		for _, d := range shape {
			n *= d
		}
		for _, nIdx := range []int{0, 1, n / 2, 2 * n} { // 2n forces duplicates
			idx := make([]int, nIdx)
			for i := range idx {
				idx[i] = rng.IntN(n)
			}
			got := scatterSpikes(idx, shape...)
			plane := New(shape...)
			for _, i := range idx {
				plane.Data()[i] = 1
			}
			want := PackSpikesOn(nil, plane)
			if got.Count() != want.Count() {
				t.Fatalf("shape %v, %d idx: count %d, want %d", shape, nIdx, got.Count(), want.Count())
			}
			for r := 0; r < shape[0]; r++ {
				if got.ensureCounts()[r] != want.ensureCounts()[r] {
					t.Fatalf("shape %v row %d: count %d, want %d", shape, r, got.ensureCounts()[r], want.ensureCounts()[r])
				}
			}
			gd, wd := dense(got).Data(), dense(want).Data()
			for i := range wd {
				if gd[i] != wd[i] {
					t.Fatalf("shape %v, %d idx: dense[%d] = %v, want %v", shape, nIdx, i, gd[i], wd[i])
				}
			}
		}
	}
}

// TestScatterSpikesIntoReusesSlab checks that the Into form clears stale
// bits from a reused slab and recomputes counts.
func TestScatterSpikesIntoReusesSlab(t *testing.T) {
	shape := []int{2, 70}
	rows, _, words := spikeDims(shape)
	bits64 := make([]uint64, rows*words)
	counts := make([]int, rows)
	ScatterSpikesInto(bits64, counts, []int{0, 69, 70, 139}, shape...)
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("first scatter counts %v, want [2 2]", counts)
	}
	ScatterSpikesInto(bits64, counts, []int{5}, shape...)
	st := new(SpikeTensor).Init(bits64, counts, shape...)
	if st.Count() != 1 || !bit(st, 0, 5) {
		t.Fatalf("reused slab kept stale bits: count %d", st.Count())
	}
}

// TestScatterSpikesPanicsOutOfRange pins the kernel's bounds check.
func TestScatterSpikesPanicsOutOfRange(t *testing.T) {
	for _, bad := range []int{-1, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("scatterSpikes(%d) on 12 elements did not panic", bad)
				}
			}()
			scatterSpikes([]int{bad}, 3, 4)
		}()
	}
}
