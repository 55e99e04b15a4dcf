// Package tensor implements dense float32 tensors, their elementwise
// operations, and the convolution geometry (ConvDims, Col2Im) the
// neural-network package's layers are built on. Tensors are row-major and
// carry an explicit shape; all operations are deterministic and allocation
// behaviour is documented per function so training loops can reuse buffers.
// The matrix products live in nn, on the inference plan's GEMM.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// tensor; use New or NewFrom to create usable instances.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative or the shape is empty.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// NewFrom wraps data in a tensor with the given shape. The data slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func NewFrom(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return NewFrom(d, t.shape...)
}

// Reshape returns a view of t with a new shape sharing the same backing
// array. It panics if the element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// At returns the element at the given multi-index. Intended for tests and
// small accesses, not inner loops.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Copy copies src's data into t. It panics if lengths differ.
func (t *Tensor) Copy(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic("tensor: Copy length mismatch")
	}
	copy(t.data, src.data)
}

// AddScaled computes t += alpha*src elementwise. It panics if lengths differ.
func (t *Tensor) AddScaled(alpha float32, src *Tensor) {
	if len(t.data) != len(src.data) {
		panic("tensor: AddScaled length mismatch")
	}
	for i, v := range src.data {
		t.data[i] += float32(alpha * v)
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// SumSquares returns the sum of squared elements in float64 for stability.
func (t *Tensor) SumSquares() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(float64(v) * float64(v))
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// RandNormal fills the tensor with N(0, std^2) samples from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64() * std)
	}
}

// RandUniform fills the tensor with uniform samples in [lo, hi).
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.data {
		t.data[i] = float32(lo + float64(rng.Float64()*(hi-lo)))
	}
}

// Equal reports whether two tensors have identical shape and every element
// pair differs by at most tol.
func Equal(a, b *Tensor, tol float32) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	for i := range a.data {
		d := a.data[i] - b.data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element is a finite number.
func (t *Tensor) IsFinite() bool {
	for _, v := range t.data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}
