package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// scratchInput is a deterministic batch of n images at resolution hw.
func scratchInput(n, hw int, seed int64) *tensor.Tensor {
	x := tensor.New(n, 3, hw, hw)
	x.RandUniform(rand.New(rand.NewSource(seed)), 0, 1)
	return x
}

// TestConcurrentInferInSharedBackends is the contract the fleet's sharing
// rests on: goroutines, each with its own Scratch, infer different inputs
// through one backend per runtime at once, and every result is the bytes a
// serial Infer of a separately built backend gives. Besides the goroutines
// pinned to one runtime, one scratch alternates runtimes and one switches
// input resolution between 15 and 32 on every call. The shared backends are
// cold when the goroutines start, so the float32 and pruned plans are compiled
// under contention. Run it under -race: a write to a shared backend is a
// reported race here, not a flaky byte.
func TestConcurrentInferInSharedBackends(t *testing.T) {
	type call struct {
		runtime string
		x       *tensor.Tensor
	}
	var inputs []*tensor.Tensor
	for i := range 6 {
		hw := 32
		if i%2 == 1 {
			hw = 15
		}
		inputs = append(inputs, scratchInput(1+i%3, hw, int64(100+i)))
	}
	want := map[call][]float64{}
	shared := map[string]Backend{}
	for _, rt := range Runtimes() {
		serial := NewRuntimeBackend(rt, backendTestModel(t))
		for _, x := range inputs {
			want[call{rt, x}] = serial.Infer(x)
		}
		shared[rt] = NewRuntimeBackend(rt, backendTestModel(t))
	}

	// One call list a goroutine: three pinned to each runtime on its own
	// inputs, one alternating runtimes, one alternating resolutions.
	var lists [][]call
	for _, rt := range Runtimes() {
		for g := range 3 {
			var l []call
			for i := g; i < len(inputs); i += 2 {
				l = append(l, call{rt, inputs[i]})
			}
			lists = append(lists, l)
		}
	}
	var alternating, resolutions []call
	for i, x := range inputs {
		alternating = append(alternating, call{Runtimes()[i%3], x})
		resolutions = append(resolutions, call{RuntimeInt8, x}) // inputs alternate 32 and 15
	}
	lists = append(lists, alternating, resolutions)

	const rounds = 3
	var wg sync.WaitGroup
	errs := make([]error, len(lists))
	for g, l := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(Scratch)
			for r := range rounds {
				for i, c := range l {
					got := shared[c.runtime].InferIn(sc, c.x)
					w := want[c]
					if len(got) != len(w) {
						errs[g] = fmt.Errorf("goroutine %d round %d call %d (%s): %d probabilities, want %d", g, r, i, c.runtime, len(got), len(w))
						return
					}
					for j := range w {
						if got[j] != w[j] {
							errs[g] = fmt.Errorf("goroutine %d round %d call %d (%s, %dx%d): probability %d = %v, serial Infer %v", g, r, i, c.runtime, c.x.Dim(2), c.x.Dim(3), j, got[j], w[j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// scratchBytes is what a scratch holds: its arena, panels and masks, the
// BatchNorm transforms and the head tensors.
func scratchBytes(sc *Scratch) int {
	n := 4*cap(sc.col) + 4*cap(sc.dwMasks) + cap(sc.qpanel)
	for _, b := range sc.bufs {
		n += 4 * cap(b)
	}
	for _, a := range sc.affines[:cap(sc.affines)] {
		n += 4 * (cap(a.scale) + cap(a.shift))
	}
	for _, t := range []*tensor.Tensor{sc.feat, sc.embed, sc.logits, sc.prob} {
		if t != nil {
			n += 4 * t.Len()
		}
	}
	return n
}

// TestWarmScratchSize pins what a fleet worker keeps per scratch: one scratch
// that has run all three runtimes of the default-width model at the fleet's
// input size and batch (475 KB measured). Each arena buffer holds the largest
// output wired to it: only buffer 0 ever holds the 48×32×32 expand output, and
// giving every buffer that size would make the scratch 709 KB.
func TestWarmScratchSize(t *testing.T) {
	const ceiling = 620 << 10
	sc := new(Scratch)
	x := fixedBatch(24, 3)
	for _, rt := range Runtimes() {
		NewRuntimeBackend(rt, backendTestModel(t)).InferIn(sc, x)
	}
	if got := scratchBytes(sc); got > ceiling {
		t.Errorf("a warm scratch holds %d KB, ceiling %d KB", got>>10, ceiling>>10)
	}
	if got, want := len(sc.bufs), 3; got != want {
		t.Errorf("the default model's plan is wired to %d buffers, want %d", got, want)
	}
}
