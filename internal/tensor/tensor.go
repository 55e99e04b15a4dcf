// Package tensor implements dense float32 tensors and the linear-algebra
// kernels (matrix multiplication, col2im) that the neural-network package's
// backward passes are built on. Tensors are row-major and carry an explicit
// shape; all operations are deterministic and allocation behaviour is
// documented per function so training loops can reuse buffers.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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

// parallelRows runs fn over row ranges [lo,hi) split across workers. Small
// jobs run inline to avoid goroutine overhead.
func parallelRows(rows, minRowsPerWorker int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows/minRowsPerWorker {
		workers = rows / minRowsPerWorker
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMul computes C = A·B where A is (m,k) and B is (k,n), writing into a new
// (m,n) tensor. Panics on shape mismatch.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := mmDims(a, b)
	c := New(m, n)
	matmulInto(c.data, a.data, b.data, m, k, n)
	return c
}

func mmDims(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k = a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, b.Dim(0)))
	}
	n = b.Dim(1)
	return m, k, n
}

// matmulInto is the workhorse: c (m×n) = a (m×k) · b (k×n). It uses an
// i-k-j loop order so the inner loop streams rows of b and c at unit stride
// (scalar all the same: the Go compiler does not vectorize), and splits rows
// across goroutines for large problems.
func matmulInto(c, a, b []float32, m, k, n int) {
	for i := range c[:m*n] {
		c[i] = 0
	}
	work := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a[i*k : i*k+k]
			ci := c[i*n : i*n+n]
			for p, av := range ai {
				if av == 0 {
					continue
				}
				bp := b[p*n : p*n+n]
				for j, bv := range bp {
					ci[j] += float32(av * bv)
				}
			}
		}
	}
	// Only parallelize when the per-row work is worth a goroutine.
	if m*k*n >= 1<<16 {
		parallelRows(m, 4, work)
	} else {
		work(0, m)
	}
}

// MatMulTA computes C = Aᵀ·B where A is (k,m) and B is (k,n) → C (m,n).
// Used for weight gradients.
func MatMulTA(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTA requires rank-2 tensors")
	}
	k, m := a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: MatMulTA inner dims %d vs %d", k, b.Dim(0)))
	}
	n := b.Dim(1)
	c := New(m, n)
	ad, bd, cd := a.data, b.data, c.data
	work := func(lo, hi int) {
		for p := 0; p < k; p++ {
			ap := ad[p*m : p*m+m]
			bp := bd[p*n : p*n+n]
			for i := lo; i < hi; i++ {
				av := ap[i]
				if av == 0 {
					continue
				}
				ci := cd[i*n : i*n+n]
				for j, bv := range bp {
					ci[j] += float32(av * bv)
				}
			}
		}
	}
	if m*k*n >= 1<<16 && m >= 8 {
		parallelRows(m, 4, work)
	} else {
		work(0, m)
	}
	return c
}

// MatMulTB computes C = A·Bᵀ where A is (m,k) and B is (n,k) → C (m,n).
// Used for input gradients.
func MatMulTB(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTB requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	if b.Dim(1) != k {
		panic(fmt.Sprintf("tensor: MatMulTB inner dims %d vs %d", k, b.Dim(1)))
	}
	n := b.Dim(0)
	c := New(m, n)
	ad, bd, cd := a.data, b.data, c.data
	work := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := ad[i*k : i*k+k]
			ci := cd[i*n : i*n+n]
			for j := 0; j < n; j++ {
				bj := bd[j*k : j*k+k]
				var s float32
				for p, av := range ai {
					s += float32(av * bj[p])
				}
				ci[j] = s
			}
		}
	}
	if m*k*n >= 1<<16 {
		parallelRows(m, 4, work)
	} else {
		work(0, m)
	}
	return c
}
