package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

// storedFrames are real frames of every codec, at even, odd and one-pixel
// sizes, in their stored form: the round-trip cases and FuzzDecode's seeds.
func storedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	var out [][]byte
	for _, size := range [][2]int{{16, 16}, {9, 7}, {1, 1}, {17, 2}} {
		im := randImage(rng, size[0], size[1])
		for _, c := range []Codec{NewJPEG(85), NewWebP(75), NewHEIF(75), NewPNG()} {
			b, err := c.Encode(im).MarshalBinary()
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// TestStoredFrameRoundTrip: a stored frame parses back to a frame that
// decodes to the same pixels under both chroma paths and stores as the same
// bytes, and every proper prefix of it is refused.
func TestStoredFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := randImage(rng, 13, 10)
	for _, c := range []Codec{NewJPEG(60), NewWebP(40), NewHEIF(90), NewPNG()} {
		enc := c.Encode(im)
		b, err := enc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseEncoded(b)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if got.Format != enc.Format || got.W != enc.W || got.H != enc.H || got.Size != enc.Size {
			t.Fatalf("%s: header %+v, want %+v", c.Name(), got, enc)
		}
		for _, mode := range []UpsampleMode{UpsampleBilinear, UpsampleNearest} {
			opts := DecodeOptions{ChromaUpsample: mode}
			if !bytes.Equal(got.Decode(opts).ToBytes(), enc.Decode(opts).ToBytes()) {
				t.Fatalf("%s mode %d: parsed frame decodes differently", c.Name(), mode)
			}
		}
		if again, _ := got.MarshalBinary(); !bytes.Equal(again, b) {
			t.Fatalf("%s: parsed frame stores differently", c.Name())
		}
		for n := 0; n < len(b); n++ {
			if _, err := ParseEncoded(b[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte frame accepted", c.Name(), n, len(b))
			}
		}
	}
}

// FuzzDecode: a corrupted stored frame is refused or decodes; parsing never
// panics nor allocates past what the input holds, and an accepted frame
// decodes the same pixels every time, also after it is stored again.
func FuzzDecode(f *testing.F) {
	for _, b := range storedFrames(f) {
		f.Add(b)
	}
	f.Add([]byte{0, 128, 32, 128, 32, 0, 1, 8}) // a 4096² lossy frame with no payload
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ParseEncoded(data)
		if err != nil {
			return
		}
		stored, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseEncoded(stored)
		if err != nil {
			t.Fatalf("an accepted frame stores as %x, which is refused: %v", stored, err)
		}
		for _, mode := range []UpsampleMode{UpsampleBilinear, UpsampleNearest} {
			opts := DecodeOptions{ChromaUpsample: mode}
			a, b, c := e.Decode(opts).ToBytes(), e.Decode(opts).ToBytes(), again.Decode(opts).ToBytes()
			if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
				t.Fatalf("mode %d: decodes of one frame differ", mode)
			}
		}
	})
}
