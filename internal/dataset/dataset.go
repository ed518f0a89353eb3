// Package dataset provides the image-classification data the experiments
// run on. The primary source is SynthDigits, a fully deterministic
// synthetic 10-class digit generator standing in for MNIST (the module is
// offline; see DESIGN.md for why the substitution preserves the paper's
// phenomena). When the real MNIST IDX files are available on disk, LoadMNIST
// reads them instead, recovering the paper's exact setting.
package dataset

import (
	"fmt"
	"math/rand/v2"

	"snnsec/internal/tensor"
)

// MNIST normalisation constants, used by the paper's software stack
// (torchvision) and adopted here so ε budgets are comparable.
const (
	MNISTMean = 0.1307
	MNISTStd  = 0.3081
)

// Dataset is a labelled set of single-channel images.
type Dataset struct {
	// X has shape [N, 1, H, W]. Values are raw intensities in [0, 1]
	// until Normalize is called.
	X *tensor.Tensor
	// Y holds the class label of each image.
	Y []int
	// Normalized records whether X is in normalised units.
	Normalized bool
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// NumClasses returns the number of distinct labels (max label + 1).
func (d *Dataset) NumClasses() int {
	m := 0
	for _, y := range d.Y {
		if y+1 > m {
			m = y + 1
		}
	}
	return m
}

// ImageSize returns the spatial size (H == W is not required; both are
// returned).
func (d *Dataset) ImageSize() (h, w int) { return d.X.Dim(2), d.X.Dim(3) }

// Normalize converts raw [0,1] intensities to MNIST-normalised units
// (x − mean)/std in place. It is idempotent.
func (d *Dataset) Normalize() {
	if d.Normalized {
		return
	}
	for i, v := range d.X.Data() {
		d.X.Data()[i] = (v - MNISTMean) / MNISTStd
	}
	d.Normalized = true
}

// Bounds returns the valid pixel range in the dataset's current units:
// [0,1] raw, or the normalised image of that interval. Attacks clip
// adversarial examples to these bounds, as Foolbox does.
func (d *Dataset) Bounds() (lo, hi float64) {
	if d.Normalized {
		return (0 - MNISTMean) / MNISTStd, (1 - MNISTMean) / MNISTStd
	}
	return 0, 1
}

// Subset returns a dataset view containing samples [from, to).
func (d *Dataset) Subset(from, to int) *Dataset {
	if from < 0 || to > d.Len() || from >= to {
		panic(fmt.Sprintf("dataset: bad subset [%d,%d) of %d", from, to, d.Len()))
	}
	n := to - from
	h, w := d.ImageSize()
	x := tensor.New(n, 1, h, w)
	copy(x.Data(), d.X.Data()[from*h*w:to*h*w])
	y := append([]int(nil), d.Y[from:to]...)
	return &Dataset{X: x, Y: y, Normalized: d.Normalized}
}

// ShuffleOrder permutes order in place with r: the Fisher–Yates walk from
// the last position down, one r.IntN(i+1) draw per position i > 0.
// Training draws its batches through an order shuffled this way, so a
// dataset is never written and goroutines may train on it at once.
func ShuffleOrder(order []int, r *rand.Rand) {
	for i := len(order) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		order[i], order[j] = order[j], order[i]
	}
}

// Batch holds one minibatch.
type Batch struct {
	X *tensor.Tensor // [B, 1, H, W]
	Y []int
}

// Batches splits the dataset into consecutive minibatches of at most size.
func (d *Dataset) Batches(size int) []Batch { return d.BatchesIn(nil, size) }

// BatchesIn gathers minibatches of at most size through order: batch k
// holds samples order[k·size], order[k·size+1], … of a permutation of
// the sample indices; a nil order is the identity. Each batch is a copy;
// the dataset is not modified.
func (d *Dataset) BatchesIn(order []int, size int) []Batch {
	if size <= 0 {
		panic(fmt.Sprintf("dataset: batch size %d", size))
	}
	var out []Batch
	h, w := d.ImageSize()
	stride := h * w
	src := d.X.Data()
	for from := 0; from < d.Len(); from += size {
		to := min(from+size, d.Len())
		x := tensor.New(to-from, 1, h, w)
		y := make([]int, to-from)
		dst := x.Data()
		for k := range y {
			s := from + k
			if order != nil {
				s = order[s]
			}
			copy(dst[k*stride:(k+1)*stride], src[s*stride:(s+1)*stride])
			y[k] = d.Y[s]
		}
		out = append(out, Batch{X: x, Y: y})
	}
	return out
}
