// Package repro's benchmark harness regenerates every table and figure of
// the paper at reduced scale: one benchmark per table/figure plus the
// ablations called out in DESIGN.md. Key results are attached as custom
// benchmark metrics (instability_pct, accuracy_pct, ...), so
//
//	go test -bench=. -benchmem
//
// prints the rows the paper reports. The shared base model is trained once
// per process; experiment sizes are scaled down so the full suite completes
// in minutes on one core (cmd/paper runs the full-scale versions). Every
// measurement is an internal/lab call shared with that binary; this file
// only reduces what comes back to metrics.
package repro

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/isp"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/stability"
	"repro/internal/train"
)

var (
	benchOnce    sync.Once
	benchModel   *nn.Model
	benchRig     *lab.Rig
	benchItems   []*dataset.Item
	benchRecords []*stability.Record
)

// benchSetup trains the shared model and captures the shared end-to-end
// photo matrix once per process.
func benchSetup(tb testing.TB) {
	tb.Helper()
	benchOnce.Do(func() {
		benchModel = lab.TrainBaseModel(lab.BaseModelConfig{Seed: 7, TrainItems: 220, Epochs: 5, Width: 1})
		benchRig = lab.NewRig(42)
		benchItems = dataset.GenerateHard(30, 142).Items
		benchRecords = lab.Classify(benchModel, benchRig.CaptureAll(benchItems, []int{1, 2, 3}), 3)
	})
}

// instability is the top-1 instability of the records.
func instability(recs []*stability.Record) stability.Summary {
	return stability.NewAccumulator(recs...).Snapshot().Top1
}

// BenchmarkFig1RepeatShot: two shots of the same object with the same phone,
// seconds apart. Reports how many pixels differ (>5%) and how often the
// prediction flips.
func BenchmarkFig1RepeatShot(b *testing.B) {
	benchSetup(b)
	var flipRate, diffFrac float64
	for i := 0; i < b.N; i++ {
		shots, recs := lab.RepeatShots(benchModel, benchRig, 0, benchItems, 2, 2)
		flips, fracSum := 0, 0.0
		for j := 0; j < len(shots); j += 2 {
			if recs[j].Pred != recs[j+1].Pred {
				flips++
			}
			_, f := imaging.DiffMask(shots[j].Image, shots[j+1].Image, 0.05)
			fracSum += f
		}
		flipRate = float64(flips) / float64(len(benchItems))
		diffFrac = fracSum / float64(len(benchItems))
	}
	b.ReportMetric(flipRate*100, "flip_pct")
	b.ReportMetric(diffFrac*100, "pixels_diff_pct")
}

// BenchmarkFig3aAccuracyByPhone: per-phone accuracy of the end-to-end
// experiment (paper: 59-64%, flat across phones).
func BenchmarkFig3aAccuracyByPhone(b *testing.B) {
	benchSetup(b)
	var avg, spread float64
	for i := 0; i < b.N; i++ {
		envs := stability.NewAccumulator(benchRecords...).Snapshot().ByEnv
		min, max, sum := 1.0, 0.0, 0.0
		for _, e := range envs {
			a := e.Accuracy
			sum += a
			if a < min {
				min = a
			}
			if a > max {
				max = a
			}
		}
		avg = sum / float64(len(envs))
		spread = max - min
	}
	b.ReportMetric(avg*100, "avg_accuracy_pct")
	b.ReportMetric(spread*100, "accuracy_spread_pct")
}

// BenchmarkFig3bInstabilityByClass: total and max-class end-to-end
// instability (paper: ~15% total, class-variant).
func BenchmarkFig3bInstabilityByClass(b *testing.B) {
	benchSetup(b)
	var total, maxClass float64
	for i := 0; i < b.N; i++ {
		snap := stability.NewAccumulator(benchRecords...).Snapshot()
		total = snap.Top1.Percent()
		maxClass = 0
		for _, s := range snap.ByClass {
			if s.Percent() > maxClass {
				maxClass = s.Percent()
			}
		}
	}
	b.ReportMetric(total, "instability_pct")
	b.ReportMetric(maxClass, "max_class_instability_pct")
}

// BenchmarkFig3cInstabilityByAngle: instability split by camera angle.
func BenchmarkFig3cInstabilityByAngle(b *testing.B) {
	benchSetup(b)
	var min, max float64
	for i := 0; i < b.N; i++ {
		byAngle := map[int]*stability.Accumulator{}
		for _, r := range benchRecords {
			if byAngle[r.Angle] == nil {
				byAngle[r.Angle] = stability.NewAccumulator()
			}
			byAngle[r.Angle].Add(r)
		}
		min, max = 100, 0
		for _, acc := range byAngle {
			p := acc.Snapshot().Top1.Percent()
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
	}
	b.ReportMetric(min, "min_angle_instability_pct")
	b.ReportMetric(max, "max_angle_instability_pct")
}

// BenchmarkFig3dWithinPhone: instability over repeat photos with the same
// phone (paper: well below the cross-phone rate).
func BenchmarkFig3dWithinPhone(b *testing.B) {
	benchSetup(b)
	var within float64
	for i := 0; i < b.N; i++ {
		_, recs := lab.RepeatShots(benchModel, benchRig, 0, benchItems[:15], 2, 6)
		within = instability(recs).Percent()
	}
	b.ReportMetric(within, "within_phone_instability_pct")
	b.ReportMetric(instability(benchRecords).Percent(), "cross_phone_instability_pct")
}

// BenchmarkFig4ScoreDensities: mean prediction score of the four Figure 4
// populations (stable/unstable × correct/incorrect).
func BenchmarkFig4ScoreDensities(b *testing.B) {
	benchSetup(b)
	var split stability.ScoreSplit
	for i := 0; i < b.N; i++ {
		split = stability.SplitScores(benchRecords)
	}
	b.ReportMetric(metrics.Mean(split.StableCorrect), "stable_correct_mean")
	b.ReportMetric(metrics.Mean(split.StableIncorrect), "stable_incorrect_mean")
	b.ReportMetric(metrics.Mean(split.UnstableCorrect), "unstable_correct_mean")
	b.ReportMetric(metrics.Mean(split.UnstableIncorrect), "unstable_incorrect_mean")
}

// benchCodecMatrix reports one of Tables 2–3 over the samsung+iphone
// ISP-processed photos: cross-codec instability, mean accuracy, mean size.
func benchCodecMatrix(b *testing.B, codecs ...codec.Codec) {
	benchSetup(b)
	caps := benchRig.CodecCaptures(benchItems, []int{1, 3})
	var inst stability.Summary
	var acc, kb float64
	for i := 0; i < b.N; i++ {
		rows, recs := lab.CodecMatrix(benchModel, caps, codecs)
		inst, acc, kb = instability(recs), 0, 0
		for _, r := range rows {
			acc += r.Accuracy / float64(len(rows))
			kb += r.AvgKB / float64(len(rows))
		}
	}
	b.ReportMetric(inst.Percent(), "instability_pct")
	b.ReportMetric(acc*100, "accuracy_pct")
	b.ReportMetric(kb, "avg_size_kb")
}

// BenchmarkTable2CompressionQuality: JPEG q100/85/50 (paper: instability
// 7.6%, accuracy flat).
func BenchmarkTable2CompressionQuality(b *testing.B) {
	benchCodecMatrix(b, codec.NewJPEG(100), codec.NewJPEG(85), codec.NewJPEG(50))
}

// BenchmarkTable3CompressionFormats: JPEG/PNG/WebP/HEIF (paper: instability
// 9.66% — more than quality alone).
func BenchmarkTable3CompressionFormats(b *testing.B) {
	benchCodecMatrix(b, formatCodecs()...)
}

func formatCodecs() []codec.Codec {
	return []codec.Codec{codec.NewJPEG(75), codec.NewPNG(), codec.NewWebP(75), codec.NewHEIF(75)}
}

// BenchmarkTable4ISP: ImageMagick-like vs Adobe-like software ISP (paper:
// 14.11% instability, Adobe less accurate).
func BenchmarkTable4ISP(b *testing.B) {
	benchSetup(b)
	shots := benchRig.CaptureRaw(benchItems[:20], []int{2})
	var inst stability.Summary
	var accs []float64
	for i := 0; i < b.N; i++ {
		var recs []*stability.Record
		accs, recs = lab.ISPConversion(benchModel, shots, []*isp.Pipeline{isp.SoftwareImageMagick(), isp.SoftwareAdobe()})
		inst = instability(recs)
	}
	b.ReportMetric(inst.Percent(), "instability_pct")
	b.ReportMetric(accs[0]*100, "imagemagick_accuracy_pct")
	b.ReportMetric(accs[1]*100, "adobe_accuracy_pct")
}

// BenchmarkTable5ProcessorOS: byte-identical files decoded by five SoC
// profiles (paper: 0.64% on JPEG, 0% on PNG, Huawei/Xiaomi hashes differ).
func BenchmarkTable5ProcessorOS(b *testing.B) {
	benchSetup(b)
	var jpegInst, pngInst float64
	for i := 0; i < b.N; i++ {
		jpegInst = osInstability(codec.NewJPEG(90))
		pngInst = osInstability(codec.NewPNG())
	}
	b.ReportMetric(jpegInst, "jpeg_instability_pct")
	b.ReportMetric(pngInst, "png_instability_pct")
}

// osInstability is the §7 cross-device instability, in percent, on 60 fixed
// files stored with c.
func osInstability(c codec.Codec) float64 {
	_, recs := lab.OSDecode(benchModel, dataset.FixedSet(60, 242, c))
	return instability(recs).Percent()
}

// BenchmarkTable6aEmbeddingLoss: stability fine-tuning with the embedding
// distance loss (paper ordering: two-images best, no-noise worst).
func BenchmarkTable6aEmbeddingLoss(b *testing.B) {
	benchTable6(b, train.LossEmbedding)
}

// BenchmarkTable6bKLLoss: stability fine-tuning with the relative entropy
// loss.
func BenchmarkTable6bKLLoss(b *testing.B) {
	benchTable6(b, train.LossKL)
}

// table6Cfg is the reduced-scale §9.1 run of the Table 6 and Figure 7
// benchmarks.
var table6Cfg = lab.StabilityExpConfig{
	Seed: 42, TrainItems: 20, TestItems: 30, Angles: []int{2},
	Epochs: 1, BatchSize: 8, LR: 0.012, PerClass: 4,
}

func benchTable6(b *testing.B, loss train.StabilityLoss) {
	benchSetup(b)
	var results []lab.SchemeResult
	for i := 0; i < b.N; i++ {
		results = lab.GridSearchAlpha(benchModel, loss, table6Cfg, nil, nil)
	}
	for _, r := range results {
		b.ReportMetric(r.Instability.Percent(), strings.ReplaceAll(r.Label, " ", "_")+"_instability_pct")
	}
}

// BenchmarkFig7PrecisionRecall: PR curves of the fine-tuned models (paper:
// stability training slightly improves accuracy too).
func BenchmarkFig7PrecisionRecall(b *testing.B) {
	benchSetup(b)
	var twoImagesP, noNoiseP float64
	for i := 0; i < b.N; i++ {
		results := lab.GridSearchAlpha(benchModel, train.LossEmbedding, table6Cfg, nil, nil)
		for _, r := range results {
			// precision at the 0.6-threshold operating point
			var p float64
			for _, pt := range r.PRSamsung {
				if pt.Threshold >= 0.6 {
					p = pt.Precision
					break
				}
			}
			switch r.Label {
			case "two images":
				twoImagesP = p
			case "no noise":
				noNoiseP = p
			}
		}
	}
	b.ReportMetric(twoImagesP, "two_images_precision_at_0.6")
	b.ReportMetric(noNoiseP, "no_noise_precision_at_0.6")
}

// BenchmarkFig8RawImages: native JPEG pipeline vs raw + consistent
// conversion (paper: modest instability reduction, accuracy unchanged).
func BenchmarkFig8RawImages(b *testing.B) {
	benchSetup(b)
	var jpegInst, pngInst float64
	for i := 0; i < b.N; i++ {
		jpeg, png := lab.RawVsJPEG(benchModel, benchRig, benchItems[:20], []int{2})
		jpegInst, pngInst = instability(jpeg).Percent(), instability(png).Percent()
	}
	b.ReportMetric(jpegInst, "jpeg_instability_pct")
	b.ReportMetric(pngInst, "raw_png_instability_pct")
}

// BenchmarkFig9TopK: top-3 vs top-1 accuracy and instability (paper: ~30%
// improvement in both).
func BenchmarkFig9TopK(b *testing.B) {
	benchSetup(b)
	var acc1, acc3, inst1, inst3 float64
	for i := 0; i < b.N; i++ {
		snap := stability.NewAccumulator(benchRecords...).Snapshot()
		acc1 = snap.Accuracy * 100
		acc3 = snap.TopKAccuracy * 100
		inst1 = snap.Top1.Percent()
		inst3 = snap.TopK.Percent()
	}
	b.ReportMetric(acc1, "top1_accuracy_pct")
	b.ReportMetric(acc3, "top3_accuracy_pct")
	b.ReportMetric(inst1, "top1_instability_pct")
	b.ReportMetric(inst3, "top3_instability_pct")
}
