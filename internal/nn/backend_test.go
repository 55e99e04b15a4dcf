package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// backendTestModel builds a deterministic micro model with non-trivial
// BatchNorm running statistics (a few train-mode forwards), so int8 BN
// folding is exercised on realistic values rather than the mean-0/var-1
// initial state.
func backendTestModel(t testing.TB) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m := NewMobileNetV2Micro(rng, DefaultConfig(5))
	for i := 0; i < 3; i++ {
		x := tensor.New(8, 3, 32, 32)
		x.RandUniform(rng, 0, 1)
		m.Forward(x, true)
	}
	return m
}

// fixedBatch draws a deterministic input batch at the model resolution.
func fixedBatch(n int, seed int64) *tensor.Tensor {
	x := tensor.New(n, 3, 32, 32)
	x.RandUniform(rand.New(rand.NewSource(seed)), 0, 1)
	return x
}

func argmaxRow(row []float64) int {
	best := 0
	for c, v := range row {
		if v > row[best] {
			best = c
		}
	}
	return best
}

// TestModelImplementsBackend pins *Model as the float32 reference backend:
// its Infer must match the softmax of its eval-mode Forward exactly.
func TestModelImplementsBackend(t *testing.T) {
	m := backendTestModel(t)
	var b Backend = m
	if b.Name() != RuntimeFloat32 || b.NumClasses() != 5 || b.InputSize() != 32 {
		t.Fatalf("model backend identity: %s/%d/%d", b.Name(), b.NumClasses(), b.InputSize())
	}
	x := fixedBatch(4, 11)
	probs := b.Infer(x)
	logits, _ := m.Forward(x, false)
	want := Softmax(logits)
	if len(probs) != 4*5 {
		t.Fatalf("probs length %d, want %d", len(probs), 4*5)
	}
	for i, v := range want.Data() {
		if probs[i] != float64(v) {
			t.Fatalf("Infer[%d] = %v, Forward = %v", i, probs[i], v)
		}
	}
}

// TestInt8ParityWithFloat32 is the gradcheck-style drift bound: on fixed
// inputs the quantized backend must stay near the float32 reference — close
// enough that accuracy survives, far enough that the quantization is real —
// and agree on nearly every argmax.
func TestInt8ParityWithFloat32(t *testing.T) {
	m := backendTestModel(t)
	q := NewInt8Backend(m)
	if q.Name() != RuntimeInt8 || q.NumClasses() != 5 || q.InputSize() != 32 {
		t.Fatalf("int8 backend identity: %s/%d/%d", q.Name(), q.NumClasses(), q.InputSize())
	}
	const n = 16
	x := fixedBatch(n, 13)
	pf := m.Infer(x)
	pq := q.Infer(x)
	var maxDiff float64
	agree := 0
	for i := 0; i < n; i++ {
		rowF := pf[i*5 : (i+1)*5]
		rowQ := pq[i*5 : (i+1)*5]
		if argmaxRow(rowF) == argmaxRow(rowQ) {
			agree++
		}
		var sum float64
		for c := 0; c < 5; c++ {
			if d := math.Abs(rowF[c] - rowQ[c]); d > maxDiff {
				maxDiff = d
			}
			sum += rowQ[c]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("int8 probs of sample %d sum to %v", i, sum)
		}
	}
	if maxDiff == 0 {
		t.Fatal("int8 backend bit-identical to float32: quantization is not happening")
	}
	if maxDiff > 0.05 {
		t.Fatalf("int8 probability drift %.4f exceeds the 0.05 bound", maxDiff)
	}
	if agree < n-2 {
		t.Fatalf("int8 argmax agrees on only %d/%d samples", agree, n)
	}
}

// TestInt8PerSampleQuantization pins the batching invariant: activation
// scales are per sample, so a photo's probabilities must not depend on its
// batch companions — the property that keeps fleet runs deterministic for
// any batch schedule.
func TestInt8PerSampleQuantization(t *testing.T) {
	m := backendTestModel(t)
	q := NewInt8Backend(m)
	x := fixedBatch(6, 17)
	batch := q.Infer(x)
	for i := 0; i < 6; i++ {
		one := tensor.New(1, 3, 32, 32)
		copy(one.Data(), x.Data()[i*3*32*32:(i+1)*3*32*32])
		single := q.Infer(one)
		for c := 0; c < 5; c++ {
			if batch[i*5+c] != single[c] {
				t.Fatalf("sample %d class %d: batched %v vs alone %v", i, c, batch[i*5+c], single[c])
			}
		}
	}
}

// TestInt8Deterministic builds the backend twice from identical weights and
// checks bit-identical outputs across repeated calls.
func TestInt8Deterministic(t *testing.T) {
	a := NewInt8Backend(backendTestModel(t))
	b := NewInt8Backend(backendTestModel(t))
	x := fixedBatch(5, 19)
	pa := a.Infer(x)
	pb := b.Infer(x)
	pa2 := a.Infer(x)
	for i := range pa {
		if pa[i] != pb[i] || pa[i] != pa2[i] {
			t.Fatalf("int8 inference not deterministic at %d: %v / %v / %v", i, pa[i], pb[i], pa2[i])
		}
	}
}

// TestPrunedBackend checks the magnitude pruning: about half the conv/dense
// weights survive, and the output diverges from the unpruned reference.
// TestInferPlanMatchesForward holds the outputs to the reference loops.
func TestPrunedBackend(t *testing.T) {
	ref := backendTestModel(t)
	p := NewPrunedBackend(backendTestModel(t), 0.5)
	if p.Name() != RuntimePruned || p.NumClasses() != 5 || p.Keep() != 0.5 {
		t.Fatalf("pruned backend identity: %s/%d keep=%v", p.Name(), p.NumClasses(), p.Keep())
	}

	for _, param := range p.m.Params() {
		if !strings.HasSuffix(param.Name, ".weight") {
			continue
		}
		zero := 0
		for _, v := range param.W.Data() {
			if v == 0 {
				zero++
			}
		}
		frac := float64(zero) / float64(param.W.Len())
		if frac < 0.3 || frac > 0.7 {
			t.Fatalf("param %s: %.0f%% zeros after keep=0.5 pruning", param.Name, frac*100)
		}
	}

	x := fixedBatch(6, 23)
	got := p.Infer(x)
	refProbs := ref.Infer(x)
	same := true
	for i := range got {
		if got[i] != refProbs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("pruned backend identical to unpruned reference: pruning is not happening")
	}
}

// TestRuntimeRegistry pins the variant list and the factory dispatch.
func TestRuntimeRegistry(t *testing.T) {
	want := []string{RuntimeFloat32, RuntimeInt8, RuntimePruned}
	got := Runtimes()
	if len(got) != len(want) {
		t.Fatalf("runtimes %v", got)
	}
	for i, rt := range want {
		if got[i] != rt {
			t.Fatalf("runtimes %v, want %v", got, want)
		}
		if !ValidRuntime(rt) {
			t.Fatalf("%s not valid", rt)
		}
		b := NewRuntimeBackend(rt, backendTestModel(t))
		if b.Name() != rt {
			t.Fatalf("backend for %s reports %s", rt, b.Name())
		}
	}
	if ValidRuntime("tpu") {
		t.Fatal("unknown runtime accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown runtime")
		}
	}()
	NewRuntimeBackend("tpu", backendTestModel(t))
}

// TestInferAllocCeilings pins what one Infer call may allocate on every
// runtime once its scratch is warm: the probabilities it returns and
// Softmax's tensor, nothing that grows with the layers or the batch's images.
// InferIn in a caller's warm scratch is held to the same ceiling.
func TestInferAllocCeilings(t *testing.T) {
	const ceiling = 8 // allocations per call, at any batch size
	x := fixedBatch(24, 3)
	for _, runtime := range Runtimes() {
		b := NewRuntimeBackend(runtime, backendTestModel(t))
		sc := new(Scratch)
		for name, infer := range map[string]func(){
			"Infer":   func() { b.Infer(x) },
			"InferIn": func() { b.InferIn(sc, x) },
		} {
			infer()
			if got := testing.AllocsPerRun(5, infer); got > ceiling {
				t.Errorf("%s: %v allocations per %s, ceiling %d", runtime, got, name, ceiling)
			}
		}
	}
}
