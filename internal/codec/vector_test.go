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

// TestReferenceSuitesOnPortableKernels re-runs the transform, plane and
// resampling reference diffs on the Go kernels of a machine whose first run of them took
// the vector ones.
func TestReferenceSuitesOnPortableKernels(t *testing.T) {
	if !useVector {
		t.Skip("no vector kernels here: every other test already ran the Go ones")
	}
	portable(func() {
		t.Run("FastDCTBitIdenticalToReference", TestFastDCTBitIdenticalToReference)
		t.Run("EncodeDecodePlaneBitIdenticalToReference", TestEncodeDecodePlaneBitIdenticalToReference)
		t.Run("CodecRoundtripBitIdenticalToReference", TestCodecRoundtripBitIdenticalToReference)
		t.Run("ResampleAndEntropyBitIdenticalToReference", TestResampleAndEntropyBitIdenticalToReference)
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

var (
	negZero32 = math.Float32frombits(1 << 31)
	// cpuNaN is the NaN the processor makes of Inf-Inf or 0·Inf. A plane
	// whose NaNs are all this one leaves no room for the operand order the
	// compiler chose to show in which NaN a sum of two returns.
	cpuNaN = math.Float32frombits(0xffc00000)
)

// oddPlane fills an n-sample plane with samples in [-0.25, 1.25) and, when
// odd is set, about one sample in six from the values where a vector twin
// could part from its Go loop: zeros of both signs, denormals, magnitudes
// past every integer conversion, infinities and the processor's NaN.
func oddPlane(rng *rand.Rand, n, off int, odd bool) []float32 {
	specials := []float32{0, negZero32, negZero32, 1e-45, -1e-45, 1e-39, -1e-39, 0.5, 1e9, -3e9, 1e30, -1e30,
		math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), cpuNaN}
	p := make([]float32, n+off)[off:]
	for i := range p {
		p[i] = rng.Float32()*1.5 - 0.25
		if odd && rng.Intn(6) == 0 {
			p[i] = specials[rng.Intn(len(specials))]
		}
	}
	return p
}

// TestVectorResampleMatchesGo runs the 4:2:0 downsampler and both chroma
// upsamplers, with and without pooled scratch, over every width from 1 to 70
// and heights from 1 to 40 — ragged cells, rows shorter than a vector, row
// lengths with every vector remainder — on ordinary and odd planes and on
// planes of zeros, mostly negative (a cell of -0 alone is where a sum opened
// by its first sample and one started from +0 part), at slice offsets that
// are not vector aligned.
func TestVectorResampleMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for w := 1; w <= 70; w++ {
		for h := 1; h <= 40; h += 1 + (w+h)%3 {
			for kind, odd := range []bool{false, true, false} {
				what := fmt.Sprintf("%dx%d plane kind %d", w, h, kind)
				src := oddPlane(rng, w*h, 1+w%7, odd)
				if kind == 2 {
					for i := range src {
						src[i] = []float32{negZero32, negZero32, negZero32, 0}[rng.Intn(4)]
					}
				}
				dw, dh := (w+1)/2, (h+1)/2
				down, _, _ := downsample2x(make([]float32, dw*dh+3)[3:], src, w, h)
				var want []float32
				portable(func() { want, _, _ = downsample2x(nil, src, w, h) })
				if !f32BitsEqual(down, want) {
					t.Fatalf("downsample2x %s: the kernel paths differ:\n%v\nvs\n%v", what, down, want)
				}
				for _, mode := range []UpsampleMode{UpsampleBilinear, UpsampleNearest} {
					var want []float32
					portable(func() { want = upsample2x(nil, down, dw, dh, w, h, mode, nil) })
					got := upsample2x(make([]float32, w*h+5)[5:], down, dw, dh, w, h, mode, nil)
					if !f32BitsEqual(got, want) {
						t.Fatalf("upsample2x %s mode %d: the kernel paths differ:\n%v\nvs\n%v", what, mode, got, want)
					}
					s := scratchPool.Get().(*scratch)
					got = upsample2x(nil, down, dw, dh, w, h, mode, s)
					scratchPool.Put(s)
					if !f32BitsEqual(got, want) {
						t.Fatalf("upsample2x %s mode %d, pooled scratch: the kernel paths differ", what, mode)
					}
				}
			}
		}
	}
}

// TestVectorBlockKernelsMatchGo runs the scans and the block load and store
// of every block size on both paths. Quotients reach past int32 both ways and
// include NaN and ±Inf (a quant entry of 0, of 1e-30, of NaN), all of which
// must come out 0x80000000 as amd64's conversion makes them; coefficients
// reach both int32 limits; blocks sit at every interior position of a plane
// with odd samples, level-shifted by +0, -0 and 0.5.
func TestVectorBlockKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	oddQuant := []float32{0, negZero32, 1e-30, -2, 1e-45, float32(math.Inf(1)), cpuNaN}
	oddCoeff := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 1 << 24, 1<<24 + 1, -(1<<24 + 1)}
	for _, n := range []int{4, 8, 16} {
		n2 := n * n
		zz := zigzagFor(n)
		for trial := 0; trial < 200; trial++ {
			what := fmt.Sprintf("n=%d trial %d", n, trial)
			freq := oddPlane(rng, n2, 1+trial%7, trial%2 == 1)
			quant := make([]float32, n2+3)[3:]
			for i := range quant {
				quant[i] = 0.01 + rng.Float32()
				if trial%3 == 2 && rng.Intn(8) == 0 {
					quant[i] = oddQuant[rng.Intn(len(oddQuant))]
				}
			}
			scanQuant := make([]float32, n2)
			for i, z := range zz {
				scanQuant[i] = quant[z]
			}
			for i := range freq {
				if trial%4 == 3 {
					freq[i] *= 1e10 // quotients past int32
				}
			}
			got, want := make([]int32, n2+1)[1:], make([]int32, n2)
			quantizeScan(got, freq, scanQuant, zz)
			portable(func() { quantizeScan(want, freq, scanQuant, zz) })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("quantizeScan %s: coefficient %d = %d, the Go loop gives %d (quotient %v)", what, i, got[i], want[i], freq[zz[i]]/scanQuant[i])
				}
			}

			cf := make([]int32, n2)
			for i := range cf {
				cf[i] = int32(rng.Intn(2001) - 1000)
				if trial%2 == 1 && rng.Intn(6) == 0 {
					cf[i] = oddCoeff[rng.Intn(len(oddCoeff))]
				}
			}
			gotF, wantF := make([]float32, n2+2)[2:], make([]float32, n2)
			dequantizeScan(gotF, cf, quant, zz)
			portable(func() { dequantizeScan(wantF, cf, quant, zz) })
			if !f32BitsEqual(gotF, wantF) {
				t.Fatalf("dequantizeScan %s: the kernel paths differ:\n%v\nvs\n%v", what, gotF, wantF)
			}

			w, h := 3*n+1+trial%5, 2*n+trial%3
			plane := oddPlane(rng, w*h, trial%5, trial%2 == 1)
			x0, y0 := rng.Intn(w-n+1), rng.Intn(h-n+1)
			mid := []float32{0, negZero32, 0.5}[trial%3]
			gotB, wantB := make([]float32, n2+1)[1:], make([]float32, n2)
			loadBlock(gotB, plane, w, h, x0, y0, n, mid)
			portable(func() { loadBlock(wantB, plane, w, h, x0, y0, n, mid) })
			if !f32BitsEqual(gotB, wantB) {
				t.Fatalf("loadBlock %s at (%d,%d) of %dx%d: the kernel paths differ", what, x0, y0, w, h)
			}
			gotP := append([]float32(nil), plane...)
			wantP := append([]float32(nil), plane...)
			storeBlock(gotP, freq, w, h, x0, y0, n, mid)
			portable(func() { storeBlock(wantP, freq, w, h, x0, y0, n, mid) })
			if !f32BitsEqual(gotP, wantP) {
				t.Fatalf("storeBlock %s at (%d,%d) of %dx%d: the kernel paths differ", what, x0, y0, w, h)
			}
		}
	}
}

// sameOrBothNaN is f32BitsEqual with every NaN equal to every other: on
// arbitrary bits a plane holds NaNs of many payloads, and which of two a sum
// returns is the operand order the compiler chose.
func sameOrBothNaN(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

// FuzzVectorPlane reads fuzzed bytes as a plane — its width and height from
// the first two bytes, its samples the rest taken four bytes a float32,
// repeated as far as the plane needs — and encodes it with every block size,
// decodes it and resamples it, on the vector kernels and on the Go loops:
// coefficients, decoded samples and resampled planes must agree.
func FuzzVectorPlane(f *testing.F) {
	f.Add([]byte{64, 64, 0, 0, 0, 0x3f})
	f.Add([]byte{17, 9, 0, 0, 0xc0, 0xff, 0, 0, 0x80, 0x7f, 0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add([]byte{70, 40, 0x10, 0x20, 0x30, 0x40, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0x5f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		w, h := 1+int(data[0])%70, 1+int(data[1])%40
		raw := data[2:]
		plane := make([]float32, w*h)
		for i := range plane {
			j := 4 * (i % (len(raw) / 4))
			plane[i] = math.Float32frombits(uint32(raw[j]) | uint32(raw[j+1])<<8 | uint32(raw[j+2])<<16 | uint32(raw[j+3])<<24)
		}
		type result struct {
			coeffs   [3][]int32
			decoded  [3][]float32
			down, up []float32
			near     []float32
		}
		run := func() (r result) {
			s := new(scratch)
			for b, n := range []int{4, 8, 16} {
				var p planeData
				quant := refChromaTable(jpegLumaQ8[:], n, 0.35, 50+20*b)
				encodePlaneInto(&p, plane, w, h, n, quant, 0.5, s)
				r.coeffs[b] = p.coeffs
				r.decoded[b] = decodePlane(&p, make([]float32, w*h), s)
			}
			dw, dh := (w+1)/2, (h+1)/2
			r.down, _, _ = downsample2x(nil, plane, w, h)
			r.up = upsample2x(nil, r.down, dw, dh, w, h, UpsampleBilinear, s)
			r.near = upsample2x(nil, r.down, dw, dh, w, h, UpsampleNearest, s)
			return r
		}
		got := run()
		var want result
		portable(func() { want = run() })
		for b := range got.coeffs {
			for i, c := range got.coeffs[b] {
				if c != want.coeffs[b][i] {
					t.Fatalf("%dx%d block size %d: coefficient %d = %d, the Go loops give %d", w, h, 4<<b, i, c, want.coeffs[b][i])
				}
			}
			if !sameOrBothNaN(got.decoded[b], want.decoded[b]) {
				t.Fatalf("%dx%d block size %d: decoded planes differ", w, h, 4<<b)
			}
		}
		if !sameOrBothNaN(got.down, want.down) || !sameOrBothNaN(got.up, want.up) || !sameOrBothNaN(got.near, want.near) {
			t.Fatalf("%dx%d: resampled planes differ", w, h)
		}
	})
}
