package tensor

import (
	"math/rand"
	"testing"
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

func TestReuse(t *testing.T) {
	a := Reuse(nil, 4, 3)
	if a.Dim(0) != 4 || a.Dim(1) != 3 || a.MaxAbs() != 0 {
		t.Fatalf("Reuse(nil) = %v %v, want a zeroed (4, 3)", a.Shape(), a.Data())
	}
	a.Fill(7)
	if Reuse(a, 4, 3) != a {
		t.Fatal("a matching shape must return the tensor itself")
	}
	small := Reuse(a, 2, 3)
	if small.Len() != 6 || &small.Data()[0] != &a.Data()[0] || small.Data()[5] != 7 {
		t.Fatal("a smaller shape must re-slice the storage, contents kept")
	}
	if back := Reuse(small, 3, 4); back.Len() != 12 || &back.Data()[0] != &a.Data()[0] {
		t.Fatal("a shape within the capacity must get the storage back")
	}
	if big := Reuse(a, 5, 3); big.Len() != 15 || &big.Data()[0] == &a.Data()[0] || big.MaxAbs() != 0 {
		t.Fatal("a shape beyond the capacity must allocate a zeroed tensor")
	}
	if n := testing.AllocsPerRun(10, func() { Reuse(a, 4, 3) }); n != 0 {
		t.Fatalf("a matching Reuse allocates %v times", n)
	}
}
