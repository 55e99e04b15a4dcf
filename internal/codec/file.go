package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The stored form of an Encoded is what a device writes to its gallery and a
// decoder may be handed, corrupted or not:
//
//	uvarint len(Format), Format, uvarint W, H, Size, byte kind
//	kind 0 (PNG):   3·W·H interleaved 8-bit samples
//	kind 1 (lossy): byte blockSize (4, 8 or 16), then per plane (Y, Cb, Cr;
//	                chroma ⌈W/2⌉×⌈H/2⌉) blockSize² little-endian float32
//	                quant steps (finite, > 0) and one varint per coefficient
//
// ParseEncoded checks every length against the bytes actually present
// before it allocates, so a frame that claims to be huge costs nothing.

// maxSide bounds a stored frame's width and height.
const maxSide = 1 << 12

// MarshalBinary returns the stored form of the frame.
func (e *Encoded) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(e.Format)))
	b = append(b, e.Format...)
	for _, v := range []int{e.W, e.H, e.Size} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	if e.raw != nil {
		return append(append(b, 0), e.raw...), nil
	}
	b = append(b, 1, byte(e.planes[0].blockSize))
	for _, p := range e.planes {
		for _, q := range p.quant {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(q))
		}
		for _, c := range p.coeffs {
			b = binary.AppendVarint(b, int64(c))
		}
	}
	return b, nil
}

// frameReader consumes a stored frame; the first failure sticks in err.
type frameReader struct {
	b   []byte
	err error
}

// uint reads an unsigned varint no larger than max.
func (r *frameReader) uint(max uint64) int {
	v, n := binary.Uvarint(r.b)
	if r.err == nil && (n <= 0 || v > max) {
		r.err = errors.New("codec: bad or out-of-range length field")
	}
	if r.err != nil {
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// take reads the next n bytes.
func (r *frameReader) take(n int) []byte {
	if r.err == nil && n > len(r.b) {
		r.err = errors.New("codec: truncated frame")
	}
	if r.err != nil {
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// ParseEncoded decodes a stored frame written by MarshalBinary. It never
// panics, and it allocates only in proportion to the bytes it is given.
func ParseEncoded(data []byte) (*Encoded, error) {
	r := &frameReader{b: data}
	e := &Encoded{Format: string(r.take(r.uint(64)))}
	e.W, e.H, e.Size = r.uint(maxSide), r.uint(maxSide), r.uint(math.MaxInt32)
	kind := r.uint(1)
	if r.err == nil && (e.W == 0 || e.H == 0) {
		r.err = errors.New("codec: empty frame")
	}
	if r.err == nil && kind == 0 {
		e.raw = append([]byte{}, r.take(3*e.W*e.H)...)
	} else if n := int(r.uint(16)); r.err == nil {
		if n != 4 && n != 8 && n != 16 {
			return nil, fmt.Errorf("codec: bad block size %d", n)
		}
		e.planes = make([]planeData, 3)
		for i := range e.planes {
			p := &e.planes[i]
			p.w, p.h, p.blockSize, p.mid = e.W, e.H, n, 0.5
			if i > 0 {
				p.w, p.h, p.mid = (e.W+1)/2, (e.H+1)/2, 0
			}
			q := r.take(4 * n * n)
			count := ((p.w + n - 1) / n) * ((p.h + n - 1) / n) * n * n
			if r.err != nil || count > len(r.b) { // a coefficient takes a byte at least
				return nil, errors.New("codec: truncated frame")
			}
			p.quant, p.coeffs = make([]float32, n*n), make([]int32, count)
			for j := range p.quant {
				p.quant[j] = math.Float32frombits(binary.LittleEndian.Uint32(q[4*j:]))
				if !(p.quant[j] > 0 && p.quant[j] <= math.MaxFloat32) {
					return nil, fmt.Errorf("codec: quant step %v", p.quant[j])
				}
			}
			for j := range p.coeffs {
				v, m := binary.Varint(r.b)
				if m <= 0 || v != int64(int32(v)) {
					return nil, errors.New("codec: bad coefficient")
				}
				p.coeffs[j], r.b = int32(v), r.b[m:]
			}
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("codec: %d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return e, nil
}
