// Package repro's benchmark harness regenerates every table and figure of
// the paper at reduced scale: one benchmark per table/figure plus the
// ablations called out in DESIGN.md. Key results are attached as custom
// benchmark metrics (instability_pct, accuracy_pct, ...), so
//
//	go test -bench=. -benchmem
//
// prints the rows the paper reports. The shared base model is trained once
// per process; experiment sizes are scaled down so the full suite completes
// in minutes on one core (cmd/paper and the fleetd specs run the full-scale
// versions). Every measurement is an internal/lab call shared with that
// binary, or — for the stage swaps of Tables 2–4 and Figure 8 — a fleet run
// with a format, the path the experiment specs take; this file only reduces
// what comes back to metrics.
package repro

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/imaging"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/stability"
	"repro/internal/train"
)

var (
	benchOnce    sync.Once
	benchConfig  = lab.BaseModelConfig{Seed: 7, TrainItems: 220, Epochs: 5, Width: 1}
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
		benchModel = lab.TrainBaseModel(benchConfig)
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

// formatRuns runs one fleet run per format on the bench model's float32
// runtime: devices 0 and 1 (the samsung and iphone cohorts, the raw-capable
// phones of §5–6 and §9.2) photograph items at full resolution. Every run
// draws the same sensor noise, so the runs differ only in the stages their
// format swaps. It returns each run's stats and accumulator.
func formatRuns(items int, angles []int, formats ...string) ([]fleet.Stats, []*stability.Accumulator) {
	stats := make([]fleet.Stats, len(formats))
	accs := make([]*stability.Accumulator, len(formats))
	for i, f := range formats {
		r := fleet.NewRunner(fleet.Config{
			Devices: 2, Items: items, Angles: angles, Seed: 42, Scale: 1,
			Runtime: nn.RuntimeFloat32, Format: f,
		}, fleet.BackendReplicator(benchConfig.Arch, benchModel))
		stats[i], accs[i] = r.Run(), r.Accumulator()
	}
	return stats, accs
}

// crossFormat is the instability across formats: the paper's metric with
// the formats as environments, over one group per photo (device, item,
// angle), unstable when one format classifies the photo correctly and
// another does not.
func crossFormat(accs []*stability.Accumulator) stability.Summary {
	seen := map[stability.Cell][2]bool{}
	for _, acc := range accs {
		for c, o := range acc.Outcomes() {
			v := seen[c]
			v[0] = v[0] || o == stability.OutcomeCorrect
			v[1] = v[1] || o == stability.OutcomeIncorrect
			seen[c] = v
		}
	}
	s := stability.Summary{Groups: len(seen)}
	for _, v := range seen {
		if v[0] && v[1] {
			s.Unstable++
		}
	}
	return s
}

// benchCodecFormats reports one of Tables 2–3 over the samsung+iphone
// photos: cross-codec instability, mean accuracy, mean size.
func benchCodecFormats(b *testing.B, formats ...string) {
	benchSetup(b)
	var inst stability.Summary
	var acc, kb float64
	for i := 0; i < b.N; i++ {
		runs, accs := formatRuns(len(benchItems), []int{1, 3}, formats...)
		inst, acc, kb = crossFormat(accs), 0, 0
		for _, st := range runs {
			acc += st.Accuracy / float64(len(runs))
			kb += st.CaptureBytes.Mean / 1024 / float64(len(runs))
		}
	}
	b.ReportMetric(inst.Percent(), "instability_pct")
	b.ReportMetric(acc*100, "accuracy_pct")
	b.ReportMetric(kb, "avg_size_kb")
}

// BenchmarkTable2CompressionQuality: JPEG q100/85/50 (paper: instability
// 7.6%, accuracy flat).
func BenchmarkTable2CompressionQuality(b *testing.B) {
	benchCodecFormats(b, "jpeg:100", "jpeg:85", "jpeg:50")
}

// BenchmarkTable3CompressionFormats: JPEG/PNG/WebP/HEIF (paper: instability
// 9.66% — more than quality alone).
func BenchmarkTable3CompressionFormats(b *testing.B) {
	benchCodecFormats(b, codecFormats...)
}

// codecFormats are Table 3's four formats.
var codecFormats = []string{"jpeg:75", "png", "webp:75", "heif:75"}

// BenchmarkTable4ISP: ImageMagick-like vs Adobe-like software ISP (paper:
// 14.11% instability, Adobe less accurate).
func BenchmarkTable4ISP(b *testing.B) {
	benchSetup(b)
	var inst stability.Summary
	var runs []fleet.Stats
	for i := 0; i < b.N; i++ {
		var accs []*stability.Accumulator
		runs, accs = formatRuns(20, []int{2}, "raw:imagemagick", "raw:adobe")
		inst = crossFormat(accs)
	}
	b.ReportMetric(inst.Percent(), "instability_pct")
	b.ReportMetric(runs[0].Accuracy*100, "imagemagick_accuracy_pct")
	b.ReportMetric(runs[1].Accuracy*100, "adobe_accuracy_pct")
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
		runs, _ := formatRuns(20, []int{2}, "native", "raw:dng")
		jpegInst, pngInst = runs[0].Top1.Percent, runs[1].Top1.Percent
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
