package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	if x.Len() != 24 {
		t.Fatalf("len = %d, want 24", x.Len())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	assertPanics(t, func() { New() })
	assertPanics(t, func() { New(2, -1) })
	assertPanics(t, func() { NewFrom([]float32{1, 2}, 3) })
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 1, 2)
	if got := x.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := x.Data()[1*4+2]; got != 7.5 {
		t.Fatalf("row-major layout broken: %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	assertPanics(t, func() { x.At(2, 0) })
	assertPanics(t, func() { x.At(0, -1) })
	assertPanics(t, func() { x.At(0) })
}

func TestReshapeSharesData(t *testing.T) {
	x := NewFrom([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 1)
	if x.At(0, 1) != 99 {
		t.Fatal("Reshape must share backing data")
	}
	assertPanics(t, func() { x.Reshape(4, 2) })
}

func TestCloneIsDeep(t *testing.T) {
	x := NewFrom([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(42, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestZeroFillCopyAddScaledScale(t *testing.T) {
	x := New(4)
	x.Fill(2)
	y := NewFrom([]float32{1, 1, 1, 1}, 4)
	x.AddScaled(3, y) // 2 + 3*1 = 5
	for _, v := range x.Data() {
		if v != 5 {
			t.Fatalf("AddScaled: got %v want 5", v)
		}
	}
	x.Scale(0.5)
	if x.At(0) != 2.5 {
		t.Fatalf("Scale: got %v", x.At(0))
	}
	x.Copy(y)
	if x.At(3) != 1 {
		t.Fatal("Copy failed")
	}
	x.Zero()
	if x.At(0) != 0 {
		t.Fatal("Zero failed")
	}
	assertPanics(t, func() { x.Copy(New(3)) })
	assertPanics(t, func() { x.AddScaled(1, New(3)) })
}

func TestSumSquaresMaxAbs(t *testing.T) {
	x := NewFrom([]float32{3, -4}, 2)
	if got := x.SumSquares(); got != 25 {
		t.Fatalf("SumSquares = %v", got)
	}
	if got := x.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	x := NewFrom([]float32{1, 2}, 2)
	if !x.IsFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	inf := float32(1e38)
	x.Data()[1] = inf * inf // +Inf
	if x.IsFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestEqual(t *testing.T) {
	a := NewFrom([]float32{1, 2}, 2)
	b := NewFrom([]float32{1, 2.0005}, 2)
	if !Equal(a, b, 1e-3) {
		t.Fatal("Equal within tolerance failed")
	}
	if Equal(a, b, 1e-6) {
		t.Fatal("Equal outside tolerance succeeded")
	}
	if Equal(a, NewFrom([]float32{1, 2}, 2, 1), 1) {
		t.Fatal("Equal must compare shapes")
	}
}

// naiveMatMul is the reference implementation tests compare against.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			c.Set(float32(s), i, j)
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.RandNormal(rng, 1)
	return t
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {33, 9, 65}} {
		a := randTensor(rng, dims[0], dims[1])
		b := randTensor(rng, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !Equal(got, want, 1e-4) {
			t.Fatalf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulLargeParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 64, 48)
	b := randTensor(rng, 48, 40)
	if !Equal(MatMul(a, b), naiveMatMul(a, b), 1e-3) {
		t.Fatal("parallel MatMul mismatch")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	assertPanics(t, func() { MatMul(New(2, 3), New(4, 2)) })
	assertPanics(t, func() { MatMul(New(2), New(2, 2)) })
	assertPanics(t, func() { MatMulTA(New(2, 3), New(3, 2)) })
	assertPanics(t, func() { MatMulTB(New(2, 3), New(2, 2)) })
}

// transpose returns a new transposed rank-2 tensor.
func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Set(a.At(i, j), j, i)
		}
	}
	return out
}

func TestMatMulTAMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][3]int{{3, 4, 5}, {8, 2, 9}, {20, 30, 10}} {
		k, m, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, k, m)
		b := randTensor(rng, k, n)
		got := MatMulTA(a, b)
		want := naiveMatMul(transpose(a), b)
		if !Equal(got, want, 1e-3) {
			t.Fatalf("MatMulTA mismatch for dims %v", dims)
		}
	}
}

func TestMatMulTBMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][3]int{{3, 4, 5}, {8, 2, 9}, {20, 30, 10}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, n, k)
		got := MatMulTB(a, b)
		want := naiveMatMul(a, transpose(b))
		if !Equal(got, want, 1e-3) {
			t.Fatalf("MatMulTB mismatch for dims %v", dims)
		}
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	// A·I == A for random A (property-based).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := randTensor(rng, m, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		return Equal(MatMul(a, id), a, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulLinearityProperty(t *testing.T) {
	// (A+B)·C == A·C + B·C (property-based).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randTensor(rng, m, k)
		b := randTensor(rng, m, k)
		c := randTensor(rng, k, n)
		sum := a.Clone()
		sum.AddScaled(1, b)
		left := MatMul(sum, c)
		right := MatMul(a, c)
		right.AddScaled(1, MatMul(b, c))
		return Equal(left, right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandNormalStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := New(10000)
	x.RandNormal(rng, 2)
	var sum, sumSq float64
	for _, v := range x.Data() {
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	mean := sum / 10000
	std := sumSq/10000 - mean*mean
	if mean < -0.1 || mean > 0.1 {
		t.Fatalf("mean %v too far from 0", mean)
	}
	if std < 3.5 || std > 4.5 {
		t.Fatalf("variance %v too far from 4", std)
	}
}

func TestRandUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := New(1000)
	x.RandUniform(rng, -1, 3)
	for _, v := range x.Data() {
		if v < -1 || v >= 3 {
			t.Fatalf("uniform sample %v out of [-1,3)", v)
		}
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
