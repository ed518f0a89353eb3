package tensor

import (
	"fmt"
	"math/bits"
)

// Event scatter-pack kernel: the streaming input path's replacement for
// PackSpikesOn. A window binner turns sensor events into, per timestep, a
// list of set element indices; this kernel scatters those indices
// straight into the row-aligned bit layout SpikeTensor uses — the dense
// 0/1 plane PackSpikesOn would have walked is never materialised, which is
// the whole point of the event path (see internal/stream).

// ScatterSpikesInto clears bits and sets the given linear element
// indices of the logical [rows, cols] view implied by shape, in the
// row-aligned layout SpikeTensor.Init expects (element (r, c) is
// bit c&63 of word r·words + c>>6; tail bits of each row's last word
// stay zero because no index reaches them). Duplicate indices are
// idempotent — two events on one pixel in one time slice are one spike.
// counts, when non-nil, receives the per-row popcounts. Panics on an
// out-of-range index or a mis-sized slab, like every kernel here.
func ScatterSpikesInto(bits64 []uint64, counts []int, idx []int, shape ...int) {
	rows, cols, words := spikeDims(shape)
	if len(bits64) != rows*words {
		panic(fmt.Sprintf("tensor: ScatterSpikesInto got %d words for shape %v (want %d)", len(bits64), shape, rows*words))
	}
	if counts != nil && len(counts) != rows {
		panic(fmt.Sprintf("tensor: ScatterSpikesInto got %d counts for %d rows", len(counts), rows))
	}
	clear(bits64)
	n := rows * cols
	for _, i := range idx {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("tensor: ScatterSpikesInto index %d out of range [0,%d)", i, n))
		}
		r := i / cols
		c := i - r*cols
		bits64[r*words+c>>6] |= 1 << uint(c&63)
	}
	if counts != nil {
		for r := 0; r < rows; r++ {
			cnt := 0
			for _, w := range bits64[r*words : (r+1)*words] {
				cnt += bits.OnesCount64(w)
			}
			counts[r] = cnt
		}
	}
}
