package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imaging"
)

// outOfRangeDigest is the sha256 of outOfRangeDump. It was taken on amd64,
// where the two conversions it leans on (quantRound's int32, imaging's
// 8-bit level) made MinInt32 and level 0 of what they could not represent
// before either was defined for every GOARCH.
const outOfRangeDigest = "70e0a7e1ca58d0919b61951f1cec6b1200653ecb7c1be24ee9a8fd5dd162265f"

// outOfRangeDump encodes and decodes, through every codec and both chroma
// upsample modes, frames whose samples are ordinary but for about one in
// five of the values no conversion on the path can represent — ±1e10, 3e9,
// ±MaxFloat32, ±Inf and NaN — and writes each frame's size, coefficients (or
// stored bytes) and decoded samples into one byte stream.
func outOfRangeDump() []byte {
	rng := rand.New(rand.NewSource(45))
	specials := []float32{1e10, -1e10, 3e9, math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	var out []byte
	put := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	for _, sz := range [][2]int{{16, 16}, {37, 21}, {9, 1}} {
		im := imaging.New(sz[0], sz[1])
		for i := range im.Pix {
			im.Pix[i] = rng.Float32()
			if rng.Intn(5) == 0 {
				im.Pix[i] = specials[rng.Intn(len(specials))]
			}
		}
		for _, c := range []Codec{NewJPEG(85), NewJPEG(30), NewWebP(75), NewHEIF(85), NewPNG()} {
			for _, mode := range []UpsampleMode{UpsampleBilinear, UpsampleNearest} {
				enc := c.Encode(im)
				out = fmt.Appendf(out, "%s %dx%d %d size %d\n", c.Name(), sz[0], sz[1], mode, enc.Size)
				for _, p := range enc.planes {
					for _, cf := range p.coeffs {
						put(uint32(cf))
					}
				}
				out = append(out, enc.raw...)
				for _, v := range enc.Decode(DecodeOptions{ChromaUpsample: mode}).Pix {
					put(math.Float32bits(v))
				}
			}
		}
	}
	return out
}

// TestOutOfRangeDumpMatchesPinned holds the codecs' treatment of samples and
// quotients past every integer conversion to the one result amd64 computes,
// on whichever kernels and GOARCH run it: CI runs it dispatched, under
// -tags purego and on GOARCH=386.
func TestOutOfRangeDumpMatchesPinned(t *testing.T) {
	if got := fmt.Sprintf("%x", sha256.Sum256(outOfRangeDump())); got != outOfRangeDigest {
		t.Fatalf("dump of the out-of-range frames has sha256 %s, want %s", got, outOfRangeDigest)
	}
}
