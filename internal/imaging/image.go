// Package imaging provides the image representation shared by the sensor,
// ISP, codec and dataset packages: planar float32 RGB images in [0,1], plus
// the resampling, color-space and comparison utilities the experiments need.
package imaging

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Image is a planar float32 RGB image. Plane p (0=R, 1=G, 2=B) of pixel
// (x,y) lives at Pix[p*W*H + y*W + x]. Values are nominally in [0,1] but
// intermediate pipeline stages may exceed the range; Clamp restores it.
type Image struct {
	W, H int
	Pix  []float32
}

// New returns a black image of the given size.
func New(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, 3*w*h)}
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := New(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// Plane returns the backing slice for one channel (0=R,1=G,2=B).
func (im *Image) Plane(p int) []float32 {
	n := im.W * im.H
	return im.Pix[p*n : (p+1)*n]
}

// At returns the RGB triple at (x,y).
func (im *Image) At(x, y int) (r, g, b float32) {
	n := im.W * im.H
	i := y*im.W + x
	return im.Pix[i], im.Pix[n+i], im.Pix[2*n+i]
}

// Set assigns the RGB triple at (x,y).
func (im *Image) Set(x, y int, r, g, b float32) {
	n := im.W * im.H
	i := y*im.W + x
	im.Pix[i], im.Pix[n+i], im.Pix[2*n+i] = r, g, b
}

// Clamp clips every sample into [0,1] in place and returns the image.
func (im *Image) Clamp() *Image {
	pix := im.Pix[clamp01Vector(im.Pix):]
	for i, v := range pix {
		if v < 0 {
			pix[i] = 0
		} else if v > 1 {
			pix[i] = 1
		}
	}
	return im
}

// Fill sets every pixel to the given color.
func (im *Image) Fill(r, g, b float32) {
	n := im.W * im.H
	for i := 0; i < n; i++ {
		im.Pix[i] = r
		im.Pix[n+i] = g
		im.Pix[2*n+i] = b
	}
}

// ToTensor converts the image to a (1,3,H,W) NCHW tensor normalized to
// [-1,1], the input convention of the classifier.
func (im *Image) ToTensor() *tensor.Tensor {
	t := tensor.New(1, 3, im.H, im.W)
	for i, v := range im.Pix {
		t.Data()[i] = float32(v*2) - 1
	}
	return t
}

// BatchTensor stacks images into an (N,3,H,W) tensor normalized to [-1,1].
// All images must share the same dimensions.
func BatchTensor(images []*Image) *tensor.Tensor {
	if len(images) == 0 {
		panic("imaging: BatchTensor on empty slice")
	}
	w, h := images[0].W, images[0].H
	for _, im := range images {
		if im.W != w || im.H != h {
			panic(fmt.Sprintf("imaging: BatchTensor size mismatch %dx%d vs %dx%d", im.W, im.H, w, h))
		}
	}
	return BatchTensorInto(tensor.New(len(images), 3, h, w), images)
}

// BatchTensorInto fills t, an (N,3,H,W) tensor for N = len(images) whose
// contents may be dirty, with the images resized to W×H as Resize does and
// normalized to [-1,1], and returns it. Each image is resampled straight into
// its slot of the tensor — no intermediate image — so a model fed captures
// of another resolution pays one pass per image and allocates nothing.
func BatchTensorInto(t *tensor.Tensor, images []*Image) *tensor.Tensor {
	if t.Rank() != 4 || t.Dim(0) != len(images) || t.Dim(1) != 3 {
		panic(fmt.Sprintf("imaging: BatchTensorInto tensor %v for %d images", t.Shape(), len(images)))
	}
	h, w := t.Dim(2), t.Dim(3)
	stride := 3 * w * h
	for i, im := range images {
		slot := t.Data()[i*stride : (i+1)*stride]
		src := im.Pix
		if im.W != w || im.H != h {
			resizeInto(slot, im, w, h)
			src = slot
		}
		for j, v := range src {
			slot[j] = float32(v*2) - 1
		}
	}
	return t
}

// ToBytes quantizes the image to interleaved 8-bit RGB (the storage format a
// phone gallery would hold). Quantization is value-rounding with clamping.
func (im *Image) ToBytes() []byte {
	n := im.W * im.H
	out := make([]byte, 3*n)
	for i := 0; i < n; i++ {
		out[3*i] = quant8(im.Pix[i])
		out[3*i+1] = quant8(im.Pix[n+i])
		out[3*i+2] = quant8(im.Pix[2*n+i])
	}
	return out
}

// FromBytes builds an image from interleaved 8-bit RGB data.
func FromBytes(data []byte, w, h int) (*Image, error) {
	return FromBytesInto(New(w, h), data, w, h)
}

// FromBytesInto fills dst (dimensions w×h, every sample overwritten) from
// interleaved 8-bit RGB data.
func FromBytesInto(dst *Image, data []byte, w, h int) (*Image, error) {
	if len(data) != 3*w*h {
		return nil, fmt.Errorf("imaging: FromBytes: %d bytes for %dx%d (want %d)", len(data), w, h, 3*w*h)
	}
	n := w * h
	for i := 0; i < n; i++ {
		dst.Pix[i] = float32(data[3*i]) / 255
		dst.Pix[n+i] = float32(data[3*i+1]) / 255
		dst.Pix[2*n+i] = float32(data[3*i+2]) / 255
	}
	return dst, nil
}

// quant8 is v's 8-bit level: v·255 + 0.5 truncated and clamped to [0, 255].
// A NaN, and a sum of 2⁶³ or more, is level 0 on every GOARCH: that is what
// amd64 computed when this truncated to a 64-bit int, whose conversion makes
// MinInt64 of both, and Go leaves such a conversion to the architecture (386
// overflowed at 2³¹, arm64 saturates).
func quant8(v float32) byte {
	x := float32(v*255) + 0.5
	switch {
	case x >= 0x1p63:
		return 0
	case x >= 256:
		return 255
	case x >= 1:
		return byte(int32(x))
	}
	return 0 // below 1, or NaN
}

// Quantize8 rounds every sample to the nearest 8-bit level in place,
// modelling the precision loss of storing a processed photo.
func (im *Image) Quantize8() *Image {
	for i, v := range im.Pix {
		im.Pix[i] = float32(quant8(v)) / 255
	}
	return im
}

// MSE returns the mean squared error between two equally-sized images.
func MSE(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("imaging: MSE size mismatch")
	}
	var s float64
	for i := range a.Pix {
		d := float64(a.Pix[i] - b.Pix[i])
		s += float64(d * d)
	}
	return s / float64(len(a.Pix))
}

// PSNR returns the peak signal-to-noise ratio in dB between two images
// (+Inf for identical images).
func PSNR(a, b *Image) float64 {
	mse := MSE(a, b)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(1/mse)
}

// DiffMask returns a boolean mask of pixels whose max-channel absolute
// difference exceeds threshold (e.g. 0.05 for the paper's 5% figure), along
// with the fraction of differing pixels. Used to regenerate Figure 1's
// pixel-difference visualization.
func DiffMask(a, b *Image, threshold float32) (mask []bool, fraction float64) {
	if a.W != b.W || a.H != b.H {
		panic("imaging: DiffMask size mismatch")
	}
	n := a.W * a.H
	mask = make([]bool, n)
	count := 0
	for i := 0; i < n; i++ {
		var maxd float32
		for p := 0; p < 3; p++ {
			d := a.Pix[p*n+i] - b.Pix[p*n+i]
			if d < 0 {
				d = -d
			}
			if d > maxd {
				maxd = d
			}
		}
		if maxd > threshold {
			mask[i] = true
			count++
		}
	}
	return mask, float64(count) / float64(n)
}

// Mean returns the average value of each channel.
func (im *Image) Mean() (r, g, b float64) {
	n := im.W * im.H
	for i := 0; i < n; i++ {
		r += float64(im.Pix[i])
		g += float64(im.Pix[n+i])
		b += float64(im.Pix[2*n+i])
	}
	fn := float64(n)
	return r / fn, g / fn, b / fn
}
