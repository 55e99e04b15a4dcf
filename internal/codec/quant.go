package codec

// Standard JPEG Annex K quantization tables (8×8), the baseline every
// quality level scales from.
var jpegLumaQ8 = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

var jpegChromaQ8 = [64]int{
	17, 18, 24, 47, 99, 99, 99, 99,
	18, 21, 26, 66, 99, 99, 99, 99,
	24, 26, 56, 99, 99, 99, 99, 99,
	47, 66, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
}

// qualityScale maps a quality in [1,100] to the libjpeg scaling factor.
func qualityScale(quality int) int {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	if quality < 50 {
		return 5000 / quality
	}
	return 200 - 2*quality
}

// scaleTable applies the quality factor to a base table, clamping entries to
// [1,255] as libjpeg does.
func scaleTable(base []int, quality int) []float32 {
	scale := qualityScale(quality)
	out := make([]float32, len(base))
	for i, v := range base {
		q := (v*scale + 50) / 100
		if q < 1 {
			q = 1
		}
		if q > 255 {
			q = 255
		}
		out[i] = float32(q)
	}
	return out
}

// jpegTables returns the quality-scaled luma and chroma tables for 8×8
// blocks, in the codec's [0,1] sample units (the integer tables assume 8-bit
// samples, so divide by 255).
func jpegTables(quality int) (luma, chroma []float32) {
	luma = scaleTable(jpegLumaQ8[:], quality)
	chroma = scaleTable(jpegChromaQ8[:], quality)
	for i := range luma {
		luma[i] /= 255
	}
	for i := range chroma {
		chroma[i] /= 255
	}
	return luma, chroma
}

// resampleTable8 stretches or shrinks the 8×8 base table to an n×n table by
// nearest-neighbour lookup in frequency space; used to derive the 4×4
// (WebP-like) and 16×16 (HEIF-like) tables from the JPEG baseline so the
// formats share a perceptual weighting but quantize on different supports.
func resampleTable8(base []int, n int) []int {
	out := make([]int, n*n)
	for y := 0; y < n; y++ {
		sy := y * 8 / n
		for x := 0; x < n; x++ {
			sx := x * 8 / n
			out[y*n+x] = base[sy*8+sx]
		}
	}
	return out
}

// flattenTable blends a table toward its mean by t in [0,1]; HEVC-style
// codecs use flatter matrices than JPEG.
func flattenTable(base []int, t float64) []int {
	var sum int
	for _, v := range base {
		sum += v
	}
	mean := float64(sum) / float64(len(base))
	out := make([]int, len(base))
	for i, v := range base {
		out[i] = int(float64(float64(v)*(1-t)) + float64(mean*t) + 0.5)
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}
