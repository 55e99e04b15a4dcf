package imaging

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// This file keeps the retired model-input path — Resize to a fresh image
// through the float-indexed box filter, then BatchTensor's normalising copy
// into a fresh tensor — as the reference BatchTensorInto and the 2:1 box
// filter are diffed against, float32 bit for bit.

// refResize is the retired Resize: a clone, refBoxDown or the (unchanged)
// bilinear upscaler.
func refResize(src *Image, w, h int) *Image {
	if w == src.W && h == src.H {
		return src.Clone()
	}
	if w <= src.W && h <= src.H {
		return refBoxDown(src, w, h)
	}
	dst := New(w, h)
	bilinear(dst.Pix, src, w, h)
	return dst
}

// refBoxDown is the retired box filter, verbatim: cell bounds from float64
// index math for every destination pixel, whatever the ratio.
func refBoxDown(src *Image, w, h int) *Image {
	dst := New(w, h)
	sn := src.W * src.H
	dn := w * h
	xr := float64(src.W) / float64(w)
	yr := float64(src.H) / float64(h)
	for y := 0; y < h; y++ {
		sy0 := int(float64(y) * yr)
		sy1 := int(float64(y+1) * yr)
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		if sy1 > src.H {
			sy1 = src.H
		}
		for x := 0; x < w; x++ {
			sx0 := int(float64(x) * xr)
			sx1 := int(float64(x+1) * xr)
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			if sx1 > src.W {
				sx1 = src.W
			}
			inv := 1 / float32((sy1-sy0)*(sx1-sx0))
			for p := 0; p < 3; p++ {
				var s float32
				for sy := sy0; sy < sy1; sy++ {
					row := src.Pix[p*sn+sy*src.W:]
					for sx := sx0; sx < sx1; sx++ {
						s += row[sx]
					}
				}
				dst.Pix[p*dn+y*w+x] = s * inv
			}
		}
	}
	return dst
}

// refBatchTensor is the retired BatchTensor, verbatim.
func refBatchTensor(images []*Image) *tensor.Tensor {
	w, h := images[0].W, images[0].H
	t := tensor.New(len(images), 3, h, w)
	stride := 3 * w * h
	for i, im := range images {
		dst := t.Data()[i*stride : (i+1)*stride]
		for j, v := range im.Pix {
			dst[j] = v*2 - 1
		}
	}
	return t
}

// TestBatchTensorIntoMatchesResizeThenBatchTensor diffs the direct path
// against resize-then-stack for every kind of input Evaluate can be handed —
// same size, 2:1, 4:1, 3:2 by 2:1, non-integer ratios down, upscaling, one
// axis up and one down — alone and mixed in one batch,
// into a tensor full of NaNs, as a pooled one may be dirty. Samples include
// −0, which a sum from +0 must turn into +0.
func TestBatchTensorIntoMatchesResizeThenBatchTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const w, h = 32, 32
	var mixed []*Image
	for _, sz := range [][2]int{{32, 32}, {64, 64}, {128, 128}, {96, 64}, {48, 48}, {50, 37}, {33, 32}, {16, 16}, {21, 21}, {64, 16}, {1, 1}} {
		im := New(sz[0], sz[1])
		for i := range im.Pix {
			im.Pix[i] = rng.Float32()
			if rng.Intn(16) == 0 {
				im.Pix[i] = negZero
			}
		}
		mixed = append(mixed, im)
	}
	batches := [][]*Image{mixed}
	for _, im := range mixed {
		batches = append(batches, []*Image{im}, []*Image{im, im, im})
	}
	for _, batch := range batches {
		resized := make([]*Image, len(batch))
		for i, im := range batch {
			resized[i] = refResize(im, w, h)
		}
		want := refBatchTensor(resized)
		dirty := tensor.New(len(batch), 3, h, w)
		dirty.Fill(float32(math.NaN()))
		got := BatchTensorInto(dirty, batch)
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("batch of %d (first %dx%d): sample %d = %v, reference %v", len(batch), batch[0].W, batch[0].H, i, v, want.Data()[i])
			}
		}
	}
}

// TestResizeMatchesReference pins Resize itself (the displayed-frame cache
// and the training loops still call it) across the same ratios.
func TestResizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, c := range [][4]int{{64, 64, 32, 32}, {64, 64, 16, 16}, {96, 64, 32, 32}, {64, 64, 64, 64}, {50, 37, 32, 32}, {64, 64, 21, 21}, {16, 16, 32, 32}, {7, 5, 1, 1}} {
		im := New(c[0], c[1])
		for i := range im.Pix {
			im.Pix[i] = rng.Float32()*2 - 0.5
		}
		got, want := Resize(im, c[2], c[3]), refResize(im, c[2], c[3])
		for i, v := range got.Pix {
			if math.Float32bits(v) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("%v: sample %d = %v, reference %v", c, i, v, want.Pix[i])
			}
		}
	}
}
