//go:build linux

package nn

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n floats whose first lies at the start of a page or whose
// last lies at the end of one, with the page before and the page after
// unreadable: a load or store that strays outside the slice faults instead of
// finding whatever the heap had there.
func guarded(t *testing.T, n int, atEnd bool) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*4 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, guard := range [][]byte{mem[:page], mem[page+size:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	data := unsafe.Slice((*float32)(unsafe.Pointer(&mem[page])), size/4)
	if atEnd {
		return data[len(data)-n:]
	}
	return data[:n:n]
}

// TestVectorDepthwiseStaysInsidePlanes runs the depthwise ops on layers that
// begin at offset 0 of their backing memory and on layers that end at its
// last element, input and output both, with unmapped pages around them: the
// kernel reads the planes in place, so it must touch no element before the
// first plane, none after the last, and no more of the output. Padding -1 is
// the crop DepthwiseConv2D.Backward asks for when a layer's padding is wider
// than its kernel.
func TestVectorDepthwiseStaysInsidePlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, ch := range []int{1, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{-1, 0, 1} {
				l := NewDepthwiseConv2D(rng, "dw", ch, 3, stride, pad)
				bn := NewBatchNorm("bn", ch)
				randomizeBN(rng, bn)
				f := &planDepthwise{l: l, bnAffine: newBNAffine(bn, true)}
				f.refresh()
				q := newQDepthwise(l, bn, true)
				for _, hw := range [][2]int{{1, 1}, {2, 7}, {3, 3}, {4, 8}, {8, 9}, {9, 15}, {16, 16}, {7, 17}, {32, 32}, {5, 33}} {
					h, w := hw[0], hw[1]
					if h+2*pad < 3 || w+2*pad < 3 {
						continue
					}
					_, outH, outW := f.outShape(ch, h, w)
					for _, atEnd := range []bool{false, true} {
						src, dst := guarded(t, ch*h*w, atEnd), guarded(t, ch*outH*outW, atEnd)
						for i := range src {
							src[i] = float32(rng.NormFloat64())
						}
						want := make([]float32, len(dst))
						for _, op := range []planOp{f, q} {
							plan := &inferPlan{}
							op.run(plan, dst, src, ch, h, w)
							portable(func() { op.run(plan, want, src, ch, h, w) })
							sameBits32(t, fmt.Sprintf("%T: %d channels of %dx%d, stride %d pad %d, at the end %v", op, ch, h, w, stride, pad, atEnd), dst, want)
						}
					}
				}
			}
		}
	}
}
