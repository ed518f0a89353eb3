package autodiff

import "snnsec/internal/tensor"

// Scalar losses for the gradient tests, recorded with the ops the models
// use: ⟨a, w⟩ for a constant w is the 1×1 product of a's row view with
// w's column view.

// dotWith records the scalar ⟨a, w⟩ for a constant w with a's element
// count.
func dotWith(tp *Tape, a *Value, w *tensor.Tensor) *Value {
	return tp.MatMul(tp.Reshape(a, 1, -1), tp.Const(w.Reshape(-1, 1)))
}

// sumOf records the scalar sum of a's elements.
func sumOf(tp *Tape, a *Value) *Value { return dotWith(tp, a, tensor.Ones(a.Shape()...)) }
