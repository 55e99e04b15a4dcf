package codec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imaging"
)

// The 8×8 and 16×16 transforms have a vector twin they must match bit for
// bit. The tests here run one computation on both — the kernels as this
// machine dispatches them, then with useVector forced off. On a build or
// machine without vector kernels both runs take the Go path and the tests
// pass trivially; the GOARCH=386 CI leg runs them to keep that build
// compiling.

// portable runs f with the vector kernels forced off.
func portable(f func()) {
	defer ForcePortableKernels()()
	f()
}

// TestReferenceSuitesOnPortableKernels re-runs the transform and plane
// reference diffs on the Go kernels of a machine whose first run of them took
// the vector ones.
func TestReferenceSuitesOnPortableKernels(t *testing.T) {
	if !useVector {
		t.Skip("no vector kernels here: every other test already ran the Go ones")
	}
	portable(func() {
		t.Run("FastDCTBitIdenticalToReference", TestFastDCTBitIdenticalToReference)
		t.Run("EncodeDecodePlaneBitIdenticalToReference", TestEncodeDecodePlaneBitIdenticalToReference)
		t.Run("CodecRoundtripBitIdenticalToReference", TestCodecRoundtripBitIdenticalToReference)
	})
}

// TestVectorTransformsMatchGo runs both transforms of both block sizes on
// random blocks and on blocks of odd samples — zeros of both signs (a row of
// -0 alone is where a sum opened by its first product and one started from +0
// would part), denormals, ±1e30, infinities and the processor's NaN, the one
// NaN a sum of products can be fed without its result depending on the
// operand order the compiler chose — out of place and with dst the source
// itself, at slice offsets that are not vector aligned.
func TestVectorTransformsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	negZero := math.Float32frombits(1 << 31)
	inf := float32(math.Inf(1))
	odd := []float32{0, negZero, negZero, negZero, 1e-45, -1e-45, 1e-39, 1e30, -1e30, math.MaxFloat32, inf, -inf, math.Float32frombits(0xffc00000)}
	for _, n := range []int{8, 16} {
		for trial := 0; trial < 300; trial++ {
			src := make([]float32, n*n+7)[1+trial%7:][:n*n]
			for i := range src {
				src[i] = float32(rng.NormFloat64())
			}
			switch trial % 3 {
			case 1: // odd samples among ordinary ones
				for k := 0; k < 1+trial%9; k++ {
					src[rng.Intn(len(src))] = odd[rng.Intn(len(odd))]
				}
			case 2: // zeros only: most of them negative, or every one
				for i := range src {
					src[i] = odd[rng.Intn(4)]
					if trial%2 == 0 {
						src[i] = negZero
					}
				}
			}
			for _, tr := range []struct {
				name string
				run  func(n int, dst, src []float32)
			}{{"forward", forward2D}, {"inverse", inverse2D}} {
				want := make([]float32, n*n)
				portable(func() { tr.run(n, want, src) })
				got := make([]float32, n*n+3)[3:]
				tr.run(n, got, src)
				what := fmt.Sprintf("%s%d trial %d", tr.name, n, trial)
				if !f32BitsEqual(got, want) {
					t.Fatalf("%s: the vector transform and the Go one differ:\n%v\nvs\n%v", what, got, want)
				}
				inPlace := append(make([]float32, 5), src...)[5:]
				tr.run(n, inPlace, inPlace)
				if !f32BitsEqual(inPlace, want) {
					t.Fatalf("%s in place: the vector transform and the Go one differ", what)
				}
			}
		}
	}
}

// TestVectorCodecRoundTripMatchesGo encodes and decodes whole images — sizes
// with ragged edge blocks, both chroma upsamplers — through every lossy
// format on both paths: coefficients, estimated size and decoded samples are
// the same.
func TestVectorCodecRoundTripMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for _, sz := range [][2]int{{64, 64}, {32, 32}, {37, 21}, {9, 50}, {1, 1}} {
		im := imaging.New(sz[0], sz[1])
		for i := range im.Pix {
			im.Pix[i] = rng.Float32()
		}
		for _, c := range []Codec{NewJPEG(85), NewJPEG(30), NewWebP(75), NewHEIF(85)} {
			for _, mode := range []UpsampleMode{UpsampleBilinear, UpsampleNearest} {
				enc := c.Encode(im)
				got := enc.Decode(DecodeOptions{ChromaUpsample: mode})
				var wantEnc *Encoded
				var want *imaging.Image
				portable(func() {
					wantEnc = c.Encode(im)
					want = wantEnc.Decode(DecodeOptions{ChromaUpsample: mode})
				})
				what := fmt.Sprintf("%s %dx%d upsample %d", c.Name(), sz[0], sz[1], mode)
				if enc.Size != wantEnc.Size {
					t.Fatalf("%s: %d bytes, the Go kernels give %d", what, enc.Size, wantEnc.Size)
				}
				for p := range enc.planes {
					for i, cf := range enc.planes[p].coeffs {
						if cf != wantEnc.planes[p].coeffs[i] {
							t.Fatalf("%s: plane %d coefficient %d = %d, the Go kernels give %d", what, p, i, cf, wantEnc.planes[p].coeffs[i])
						}
					}
				}
				if !f32BitsEqual(got.Pix, want.Pix) {
					t.Fatalf("%s: decoded samples differ between the kernel paths", what)
				}
			}
		}
	}
}
