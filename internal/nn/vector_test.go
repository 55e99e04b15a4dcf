package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// Every vector kernel has a Go twin it must match bit for bit. The tests
// here run one computation on both — the kernels as this machine dispatches
// them, then with useVector forced off — over the shapes where a tile, a lane
// mask or a padding tap could go wrong and over the values where a
// re-expressed clamp or rounding could. On a build or machine without vector
// kernels both runs take the Go path and the tests pass trivially; the
// GOARCH=386 CI leg runs them to keep that build compiling.

// portable runs f with the vector kernels forced off.
func portable(f func()) {
	defer ForcePortableKernels()()
	f()
}

// TestReferenceSuitesOnPortableKernels re-runs the bit-identity suites — the
// float32 plan and the int8 plan against their scalar references — on the Go
// kernels of a machine whose first run of them took
// the vector ones.
func TestReferenceSuitesOnPortableKernels(t *testing.T) {
	if !useVector {
		t.Skip("no vector kernels here: every other test already ran the Go ones")
	}
	suites := []struct {
		name string
		run  func(*testing.T)
	}{
		{"InferPlanMatchesForward", TestInferPlanMatchesForward},
		{"InferIsBatchInvariant", TestInferIsBatchInvariant},
		{"PlanKernelRemainderPaths", TestPlanKernelRemainderPaths},
		{"InferNeverStale", TestInferNeverStale},
		{"ModelImplementsBackend", TestModelImplementsBackend},
		{"BlockedKernelsMatchScalarReference", TestBlockedKernelsMatchScalarReference},
		{"Int8PlanMatchesWholeBatchGraph", TestInt8PlanMatchesWholeBatchGraph},
		{"QGemmRemainderPaths", TestQGemmRemainderPaths},
		{"QGemmAccumulatorLimits", TestQGemmAccumulatorLimits},
		{"QuantizeHelpersMatchBranchyReference", TestQuantizeHelpersMatchBranchyReference},
		{"QuantizePanelMatchesIm2ColQuantize", TestQuantizePanelMatchesIm2ColQuantize},
		{"QDepthwiseGeometries", TestQDepthwiseGeometries},
		{"Int8PerSampleQuantization", TestInt8PerSampleQuantization},
		{"Int8RecordedMaxMatchesAbsMax", TestInt8RecordedMaxMatchesAbsMax},
	}
	portable(func() {
		for _, s := range suites {
			t.Run(s.name, s.run)
		}
	})
}

// TestPortableClaimsNothing holds every vector wrapper of the package to the
// one switch: on inputs of which the vector dispatch takes a whole tile, each
// must claim no channel, pixel or element once portable has cleared
// useVector. A wrapper that leaned on anything else for the decision would
// leave the portable runs above comparing the assembly with itself.
func TestPortableClaimsNothing(t *testing.T) {
	const outC, p, k = 4, 16, 2
	f := make([]float32, outC*p)
	q := make([]int8, k*p)
	m := packQMatrix(make([]int8, outC*k), f[:outC], outC, k)
	plan := new(Scratch)
	qdw := &qdepthwise{taps: f[:9], ws: f[:1], bias: f[:1], kh: 3, kw: 3, stride: 1, pad: 1}
	count := func(done bool) int {
		if done {
			return 1
		}
		return 0
	}
	for _, w := range []struct {
		name    string
		claimed func() int
	}{
		{"gemmBNVector", func() int {
			cs, ps := gemmBNVector(f, f[:outC*k], f[:k*p], outC, p, k, f[:outC], f[:outC], false)
			return cs * ps
		}},
		{"qgemmTiles", func() int {
			cs, ps := qgemmTiles(f, m, 0, outC, q, p, 1, f[:outC], 0)
			return cs * ps
		}},
		{"dw3x3Vector", func() int {
			return dw3x3Vector(plan, f[:16], f[16:32], f[32:41], f[41:42], f[42:43], 1, 4, 4, 4, 4, 1, 1, false)
		}},
		{"qdw3x3Vector", func() int { return count(qdw3x3Vector(plan, qdw, f[:16], f[16:32], 1, 4, 4, 4, 4)) }},
		{"absMaxVector", func() int { _, n := absMaxVector(f); return n }},
		{"absMaxPlanesVector", func() int { return count(absMaxPlanesVector(make([]uint32, 2), f, len(f)/2)) }},
		{"quantizePanelVector", func() int { return quantizePanelVector(q, f[:k*p], p, k, 1) }},
		{"quantizeRowVector", func() int { return quantizeRowVector(q, f[:len(q)], 1) }},
		{"qgemvVector", func() int {
			wide := packQMatrix(make([]int8, outC*p), f[:outC], outC, p)
			return qgemvVector(make([]int32, outC), wide, q)
		}},
		{"addVector", func() int { return addVector(f[:8], f[8:16]) }},
	} {
		if useVector && w.claimed() == 0 {
			t.Errorf("%s claims nothing of a whole tile on the vector dispatch", w.name)
		}
		portable(func() {
			if n := w.claimed(); n != 0 {
				t.Errorf("%s claims %d with the vector kernels forced off", w.name, n)
			}
		})
	}
}

// unaligned returns an n-element slice that starts off elements into its
// allocation, so that no kernel can lean on 32-byte alignment.
func unaligned(n, off int) []float32 { return make([]float32, n+off)[off:] }

var (
	negZero = float32(math.Copysign(0, -1))
	posInf  = float32(math.Inf(1))
	// negNaN is the NaN the processor makes of Inf-Inf or 0·Inf; math.NaN
	// has the sign bit clear.
	negNaN = math.Float32frombits(0xffc00000)
)

// TestVectorGemmBNMatchesGo sweeps gemmBN over pixel counts either side of
// the 16-pixel tile, channel counts with every remainder of 4 and reduction
// depths from 1, at slice offsets that are not vector aligned.
func TestVectorGemmBNMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	fill := func(s []float32) {
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
	}
	for _, p := range []int{1, 15, 16, 17, 64, 1000, 1024} {
		for _, outC := range []int{3, 4, 6, 9, 12} {
			for i, k := range []int{1, 5, 27, 96} {
				off := 1 + 2*i%7
				w, a := unaligned(outC*k, off), unaligned(k*p, off+1)
				scale, shift := unaligned(outC, off), unaligned(outC, off+2)
				fill(w)
				fill(a)
				fill(scale)
				fill(shift)
				for _, relu6 := range []bool{false, true} {
					got, want := unaligned(outC*p, off+3), make([]float32, outC*p)
					gemmBN(got, w, a, outC, p, k, scale, shift, relu6)
					gemmBNGo(want, w, a, 0, outC, 0, p, k, scale, shift, relu6)
					sameBits32(t, fmt.Sprintf("p=%d outC=%d k=%d relu6=%v", p, outC, k, relu6), got, want)
				}
			}
		}
	}
}

// epilogueSpecials are accumulator values where a re-expressed v·scale+shift
// and clamp could differ: signed zeros, denormals, both clamp edges and their
// neighbours, infinities and both NaNs.
func epilogueSpecials() []float32 {
	return []float32{0, negZero, 1e-45, -1e-45, 1e-39, -1e-39, 1e-30, -1e-30, 3, 6, 6.0000005, 5.9999995, -7, 9,
		math.MaxFloat32, -math.MaxFloat32, posInf, -posInf, float32(math.NaN()), negNaN}
}

// TestVectorEpilogueSpecialValues drives the special values through the fused
// epilogue of both float32 kernels. With k = 1 and a unit weight the GEMM's
// accumulator is the activation itself; the scales and shifts then produce
// -0, underflow, Inf-Inf and 0·Inf in v. Scale and shift are never NaN: which
// of two different NaN operands an addition returns depends on the operand
// order the compiler chose, which no twin can promise to match.
func TestVectorEpilogueSpecialValues(t *testing.T) {
	specials := epilogueSpecials()
	scales := []float32{1, -1, 0.5, 0, negZero, 1e-10, posInf}
	shifts := []float32{0, negZero, 6, -6, 1e-45, posInf, -posInf}
	p := 32 + len(specials) // two whole tiles of them and a tail
	a := make([]float32, p)
	for i := range a {
		a[i] = specials[i%len(specials)]
	}
	var scale, shift []float32
	for _, sc := range scales {
		for _, sh := range shifts {
			scale, shift = append(scale, sc), append(shift, sh)
		}
	}
	outC := len(scale)
	w := make([]float32, outC)
	for i := range w {
		w[i] = 1
	}
	for _, relu6 := range []bool{false, true} {
		got, want := make([]float32, outC*p), make([]float32, outC*p)
		gemmBN(got, w, a, outC, p, 1, scale, shift, relu6)
		gemmBNGo(want, w, a, 0, outC, 0, p, 1, scale, shift, relu6)
		sameBits32(t, fmt.Sprintf("gemmBN relu6=%v", relu6), got, want)
		for c := 0; c < outC; c++ {
			for pi, s := range a {
				if s == 0 {
					s = 0 // the accumulator starts at +0, and +0 + -0 is +0
				}
				if v := bnAct(s, scale[c], shift[c], relu6); math.Float32bits(v) != math.Float32bits(got[c*p+pi]) {
					t.Fatalf("gemmBN(%v)·%v+%v relu6=%v = %v (%#x), bnAct gives %v (%#x)", s, scale[c], shift[c], relu6,
						got[c*p+pi], math.Float32bits(got[c*p+pi]), v, math.Float32bits(v))
				}
			}
		}
	}

	// The depthwise kernels: a centre-only kernel of 1 makes the accumulator
	// the input pixel.
	rng := rand.New(rand.NewSource(103))
	for _, stride := range []int{1, 2} {
		l := NewDepthwiseConv2D(rng, "dw", len(scale), 3, stride, 1)
		for c := 0; c < l.ch; c++ {
			copy(l.Weight.W.Data()[c*9:], []float32{0, 0, 0, 0, 1, 0, 0, 0, 0})
		}
		for _, relu6 := range []bool{false, true} {
			op := &planDepthwise{l: l, epilogue: epilogue{fixed: &bnAffine{relu6: relu6, scale: scale, shift: shift}}}
			// Even channels see the finite specials and math.NaN, odd ones
			// the infinities and the NaN that 0·Inf makes, so that no sum
			// ever meets two different NaNs.
			finite := specials[:len(specials)-4]
			sets := [][]float32{
				slices.Concat(finite, []float32{float32(math.NaN())}),
				slices.Concat(finite, []float32{posInf, -posInf, negNaN}),
			}
			x := tensor.New(1, l.ch, 5, 19)
			for i := range x.Data() {
				set := sets[i/95%2]
				x.Data()[i] = set[(i+i/95)%len(set)]
			}
			plan := new(Scratch)
			got := runPlanOp(plan, op, x)
			var want *tensor.Tensor
			portable(func() { want = runPlanOp(plan, op, x) })
			sameBits32(t, fmt.Sprintf("depthwise stride %d relu6=%v", stride, relu6), got.Data(), want.Data())
		}
	}
}

// TestVectorDepthwiseMatchesGo sweeps the float32 and int8 depthwise ops over
// planes from 1×1 to wider than four vectors, both strides, with and without
// padding. Channel 1 carries infinities (and the NaNs their differences
// make), channel 2 signed zeros and denormals, and channel 3 of the float32
// op has a non-finite tap, which must send that plane to the Go loop rather
// than turn its skipped padding taps into NaN.
func TestVectorDepthwiseMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	const ch = 4
	for _, stride := range []int{1, 2} {
		for _, pad := range []int{0, 1} {
			l := NewDepthwiseConv2D(rng, "dw", ch, 3, stride, pad)
			l.Weight.W.Data()[3*9+4] = posInf
			bn := NewBatchNorm("bn", ch)
			randomizeBN(rng, bn)
			for _, h := range []int{1, 2, 3, 4, 8, 9, 17} {
				for _, w := range []int{1, 2, 3, 7, 8, 9, 10, 15, 16, 17, 18, 31, 32, 33} {
					if h+2*pad < 3 || w+2*pad < 3 {
						continue
					}
					x := tensor.New(2, ch, h, w)
					x.RandNormal(rng, 3)
					hw := h * w
					for i := 0; i < hw; i += 5 {
						x.Data()[hw+i] = []float32{posInf, -posInf}[i/5%2]
						x.Data()[2*hw+i] = []float32{negZero, 1e-45, -1e-39, 0}[i/5%4]
					}
					relu6 := (h+w)%2 == 0
					name := fmt.Sprintf("%dx%d stride %d pad %d relu6 %v", h, w, stride, pad, relu6)
					plan := new(Scratch)

					f := &planDepthwise{l: l, epilogue: epilogue{fixed: newBNAffine(bn, relu6)}}
					got := runPlanOp(plan, f, x)
					var want *tensor.Tensor
					portable(func() { want = runPlanOp(plan, f, x) })
					sameBits32(t, "float32 depthwise "+name, got.Data(), want.Data())

					l.Weight.W.Data()[3*9+4] = 1 // quantization needs finite weights
					q := newQDepthwise(l, bn, relu6)
					l.Weight.W.Data()[3*9+4] = posInf
					x.RandNormal(rng, 3) // and finite activations: absMaxScale of an Inf is Inf
					got = runPlanOp(plan, q, x)
					portable(func() { want = runPlanOp(plan, q, x) })
					sameBits32(t, "int8 depthwise "+name, got.Data(), want.Data())
				}
			}
		}
	}
}

// TestVectorDepthwiseChannelRuns is what a kernel that takes a whole layer a
// call can get wrong and one that took a plane could not: a single channel,
// a channel count that no unrolling divides, and a tap that is not finite in
// the first, a middle or the last channel, around which the call must split
// and hand only that channel to the Go loop.
func TestVectorDepthwiseChannelRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for _, ch := range []int{1, 5} {
		for _, bad := range []int{-1, 0, ch / 2, ch - 1} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1} {
					l := NewDepthwiseConv2D(rng, "dw", ch, 3, stride, pad)
					if bad >= 0 {
						l.Weight.W.Data()[bad*9+rng.Intn(9)] = []float32{posInf, -posInf, negNaN}[rng.Intn(3)]
					}
					bn := NewBatchNorm("bn", ch)
					randomizeBN(rng, bn)
					for _, hw := range [][2]int{{3, 3}, {4, 9}, {8, 8}, {9, 17}, {16, 16}, {5, 33}} {
						h, w := hw[0], hw[1]
						x := tensor.New(2, ch, h, w)
						x.RandNormal(rng, 3)
						name := fmt.Sprintf("%d channels, tap of channel %d not finite, %dx%d stride %d pad %d", ch, bad, h, w, stride, pad)
						plan := new(Scratch)

						f := &planDepthwise{l: l, epilogue: epilogue{fixed: newBNAffine(bn, true)}}
						got := runPlanOp(plan, f, x)
						var want *tensor.Tensor
						portable(func() { want = runPlanOp(plan, f, x) })
						sameBits32(t, "float32 depthwise, "+name, got.Data(), want.Data())
						if useVector {
							_, outH, outW := f.outShape(ch, h, w)
							stop := ch
							if bad >= 0 {
								stop = bad
							}
							if took := dw3x3Vector(plan, got.Data(), x.Data(), l.Weight.W.Data(), f.fixed.scale, f.fixed.shift, ch, h, w, outH, outW, stride, pad, true); took != stop {
								t.Fatalf("%s: the vector kernel took %d channels, want %d", name, took, stop)
							}
						}

						if bad < 0 {
							q := newQDepthwise(l, bn, true)
							got = runPlanOp(plan, q, x)
							portable(func() { want = runPlanOp(plan, q, x) })
							sameBits32(t, "int8 depthwise, "+name, got.Data(), want.Data())
						}
					}
				}
			}
		}
	}
}

// TestVectorQGemmMatchesGo is TestVectorGemmBNMatchesGo for qgemm, with
// random and ±127-saturated operands, whose sums reach the lanes' limits.
func TestVectorQGemmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for _, p := range []int{1, 15, 16, 17, 64, 1000, 1024} {
		for _, outC := range []int{3, 4, 6, 9, 12} {
			for _, k := range []int{1, 5, 27, 96} {
				w, col, ws, bias := randQGemm(rng, outC, p, k)
				for _, saturate := range []bool{false, true} {
					if saturate {
						for i := range w {
							w[i] = int8(127 - 254*(i/k%2))
						}
						for i := range col {
							col[i] = int8(127 - 254*(i/k%3%2))
						}
					}
					m, panel := packQMatrix(w, ws, outC, k), panelOf(col, p, k)
					for _, clamp := range []float32{0, 6, posInf} {
						got, want := unaligned(outC*p, 3), make([]float32, outC*p)
						qgemm(got, m, panel, p, 0.003, bias, clamp)
						portable(func() { qgemm(want, m, panel, p, 0.003, bias, clamp) })
						sameBits32(t, fmt.Sprintf("p=%d outC=%d k=%d saturate=%v clamp=%v", p, outC, k, saturate, clamp), got, want)
					}
				}
			}
		}
	}
}

// TestVectorQuantizeMatchesGo runs the quantization passes — the activation
// scale and the panel — over edgeFloats, whose rounding ties, clamp edges,
// conversions out of int32's range and NaNs must land on the same byte, at
// pixel counts either side of the 16-pixel step and odd and even tap counts.
func TestVectorQuantizeMatchesGo(t *testing.T) {
	vals := append(edgeFloats(), float32(math.NaN()), negNaN)
	rng := rand.New(rand.NewSource(113))
	for i := 0; i < 500; i++ {
		vals = append(vals, float32(rng.NormFloat64()*60))
	}
	for _, p := range []int{1, 15, 16, 17, 48, 100} {
		for _, k := range []int{1, 2, 5, 8} {
			src := unaligned(k*p, 1)
			for i := range src {
				src[i] = vals[(i*7+p+k)%len(vals)]
			}
			for _, scale := range []float32{1, 0.5, 1.0 / 127, 0.0123, 3e38, 1e-45} {
				got, want := make([]int8, (k+1)&^1*p), make([]int8, (k+1)&^1*p)
				for i := range got {
					got[i], want[i] = 99, 99
				}
				quantizePanel(got, src, p, k, scale)
				portable(func() { quantizePanel(want, src, p, k, scale) })
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("p=%d k=%d scale %v: panel byte %d = %d, Go kernel %d", p, k, scale, i, got[i], want[i])
					}
				}
			}
			for n := 0; n <= len(src); n += max(1, len(src)/13) {
				got := absMaxScale(src[:n])
				var want float32
				portable(func() { want = absMaxScale(src[:n]) })
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("absMaxScale of %d values = %v (%#x), Go kernel %v (%#x)", n, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
			for hw := 1; hw <= p; hw++ { // the planes of k·p values, hw apiece
				got, want := make([]uint32, len(src)/hw), make([]uint32, len(src)/hw)
				recordPlanes(got, src, hw)
				portable(func() { recordPlanes(want, src, hw) })
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("recordPlanes of %d-value planes: plane %d = %#x, Go kernel %#x", hw, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestVectorAddMatchesGo runs the residual add at every length from 0 to 67,
// either side of the 8- and 32-value steps, over values where the operand
// order of the add shows: NaNs of distinct payloads and signs on either side
// and on both, signaling NaNs, signed zeros and infinities.
func TestVectorAddMatchesGo(t *testing.T) {
	vals := []float32{0, negZero, 1, -1, posInf, -posInf, 3e38, -3e38, 1e-45,
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002), negNaN,
		math.Float32frombits(0x7f800003), math.Float32frombits(0xff800004)} // the last two signaling
	for n := 0; n <= 67; n++ {
		dst, src := unaligned(n, 1), unaligned(n, 3)
		for i := range dst {
			dst[i] = vals[(i*5+n)%len(vals)]
			src[i] = vals[(i*3+n/len(vals))%len(vals)]
		}
		got, want := slices.Clone(dst), slices.Clone(dst)
		addInto(got, src)
		portable(func() { addInto(want, src) })
		sameBits32(t, fmt.Sprintf("n=%d", n), got, want)
	}
}

// TestVectorQGemvMatchesGo runs a dense layer's one-pixel GEMM at every
// reduction depth from 1 to 70, odd ones included, on channel counts with
// every remainder of 4, over random, ±127-saturated and all-zero rows, and on
// one row maxReduction taps deep, whose sums reach int32's limit.
func TestVectorQGemvMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	check := func(name string, w, x []int8, ws, bias []float32, outC, k int) {
		t.Helper()
		m := packQMatrix(w, ws, outC, k)
		row := make([]int8, m.k2)
		copy(row, x)
		for _, clamp := range []float32{0, 6, posInf} {
			got, want := unaligned(outC, 1), make([]float32, outC)
			qgemv(got, m, row, 0.02, bias, clamp, make([]int32, outC))
			portable(func() { qgemv(want, m, row, 0.02, bias, clamp, nil) })
			sameBits32(t, fmt.Sprintf("%s clamp=%v", name, clamp), got, want)
		}
	}
	for k := 1; k <= 70; k++ {
		for _, outC := range []int{1, 3, 4, 5, 6, 7, 10, 48} {
			w, x, ws, bias := randQGemm(rng, outC, 1, k)
			check(fmt.Sprintf("k=%d outC=%d random", k, outC), w, x, ws, bias, outC, k)
			for i := range w {
				w[i] = int8(127 - 254*(i%3%2))
			}
			for i := range x {
				x[i] = int8(127 - 254*(i/5%2))
			}
			check(fmt.Sprintf("k=%d outC=%d saturated", k, outC), w, x, ws, bias, outC, k)
			clear(w)
			check(fmt.Sprintf("k=%d outC=%d zero weights", k, outC), w, x, ws, bias, outC, k)
			clear(x)
			check(fmt.Sprintf("k=%d outC=%d zero", k, outC), w, x, ws, bias, outC, k)
		}
	}
	deep := maxReduction
	w, x := make([]int8, 5*deep), make([]int8, deep)
	for i := range w {
		w[i] = int8(127 - 254*(i/deep%2)) // rows of +127 and of -127
	}
	for i := range x {
		x[i] = 127
	}
	check("maxReduction", w, x, []float32{1e-9, 1e-9, 1e-9, 1e-9, 1e-9}, make([]float32, 5), 5, deep)
}

// TestVectorQuantizeRowMatchesGo quantizes a dense layer's row, as qdense
// does, over edgeFloats and NaNs at every length from 0 to 70.
func TestVectorQuantizeRowMatchesGo(t *testing.T) {
	vals := append(edgeFloats(), float32(math.NaN()), negNaN)
	for n := 0; n <= 70; n++ {
		src := unaligned(n, 3)
		for i := range src {
			src[i] = vals[(i*11+n)%len(vals)]
		}
		for _, scale := range []float32{1, 1.0 / 127, 0.0123, 3e38, 1e-45} {
			got, want := make([]int8, n), make([]int8, n)
			quantizeTo(got, src, scale)
			portable(func() { quantizeTo(want, src, scale) })
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d scale %v: quantizeTo = %v, Go kernel %v", n, scale, got, want)
			}
		}
	}
}

// TestStemScaleMatchesPanelScan holds qconv's shortcut for im2colSame panels to
// the scan it replaces: the image's absMaxScale is its panel's, with a NaN of
// either sign, a -0, infinities or nothing but zeros in the image.
func TestStemScaleMatchesPanelScan(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	images := map[string]func(i int) float32{
		"random":   func(int) float32 { return float32(rng.NormFloat64()) },
		"-0":       func(int) float32 { return negZero },
		"zeros":    func(i int) float32 { return [2]float32{0, negZero}[i%2] },
		"NaN":      func(i int) float32 { return [3]float32{1, float32(math.NaN()), -2}[i%3] },
		"-NaN":     func(i int) float32 { return [3]float32{negNaN, -5, negZero}[i%3] },
		"-Inf":     func(i int) float32 { return [2]float32{-posInf, 3}[i%2] },
		"one NaN":  func(i int) float32 { return [7]float32{negNaN, -1, 2, 0, negZero, 1e-45, 7}[min(i, 6)] },
		"last -7":  func(i int) float32 { return [2]float32{1, -7}[min(i/50, 1)] },
		"subnorms": func(i int) float32 { return math.Float32frombits(uint32(i) | uint32(i%2)<<31) },
	}
	for _, d := range []tensor.ConvDims{
		{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 5, InW: 7, KH: 5, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 1},
		{InC: 1, InH: 1, InW: 9, KH: 3, KW: 1, StrideH: 1, StrideW: 1, PadH: 1, PadW: 0},
	} {
		if !sameGeometry(d) {
			t.Fatalf("%+v is no im2colSame geometry", d)
		}
		hw := d.InH * d.InW
		panel := make([]float32, d.InC*d.KH*d.KW*hw)
		for name, value := range images {
			image := make([]float32, d.InC*hw)
			for i := range image {
				image[i] = value(i)
			}
			im2colPlanar(panel, image, d)
			got, want := absMaxScale(image), absMaxScale(panel)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("%+v %s: image scale %v (%#x), panel scale %v (%#x)", d, name, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	}
}
