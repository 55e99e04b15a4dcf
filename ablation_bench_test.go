// Ablation benchmarks for the design choices called out in DESIGN.md §5:
// each isolates one knob of the simulation or the mitigation and reports how
// the instability metric responds.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fmath"
	"repro/internal/imaging"
	"repro/internal/isp"
	"repro/internal/lab"
	"repro/internal/nn"
	"repro/internal/sensor"
	"repro/internal/stability"
	"repro/internal/train"
)

// BenchmarkAblationQuantSteepness: how the spread of JPEG quality levels
// drives cross-quality instability (Table 2's knob). A wider quality spread
// quantizes more differently and should flip more predictions.
func BenchmarkAblationQuantSteepness(b *testing.B) {
	benchSetup(b)
	var narrow, wide float64
	for i := 0; i < b.N; i++ {
		_, n := formatRuns(len(benchItems), []int{1, 3}, "jpeg:95", "jpeg:85", "jpeg:75")
		_, w := formatRuns(len(benchItems), []int{1, 3}, "jpeg:95", "jpeg:60", "jpeg:25")
		narrow, wide = crossFormat(n).Percent(), crossFormat(w).Percent()
	}
	b.ReportMetric(narrow, "narrow_spread_instability_pct")
	b.ReportMetric(wide, "wide_spread_instability_pct")
}

// BenchmarkAblationSensorNoise: within-phone repeat instability as a
// function of sensor noise magnitude (Figure 3d's driver).
func BenchmarkAblationSensorNoise(b *testing.B) {
	benchSetup(b)
	levels := []float64{0.5, 1, 2}
	results := make([]float64, len(levels))
	for i := 0; i < b.N; i++ {
		for li, scale := range levels {
			rig := lab.NewRig(42)
			rig.Phones[0] = device0WithNoiseScale(scale)
			_, recs := lab.RepeatShots(benchModel, rig, 0, benchItems[:15], 2, 6)
			results[li] = instability(recs).Percent()
		}
	}
	b.ReportMetric(results[0], "noise_x0.5_instability_pct")
	b.ReportMetric(results[1], "noise_x1_instability_pct")
	b.ReportMetric(results[2], "noise_x2_instability_pct")
}

// device0WithNoiseScale clones the Samsung profile with scaled sensor noise.
func device0WithNoiseScale(scale float64) *device.Profile {
	phones := device.LabPhones()
	p := phones[0]
	params := p.Sensor.Params
	params.ShotNoise *= scale
	params.ReadNoise *= scale
	p.Sensor = sensor.New(params)
	return p
}

// BenchmarkAblationDemosaic: the instability contribution of the demosaic
// algorithm alone — two pipelines identical except for the interpolator,
// developing the same raw files of the two raw-capable phones. The
// pipelines are no format value, so this one loop captures for itself.
func BenchmarkAblationDemosaic(b *testing.B) {
	benchSetup(b)
	mk := func(algo isp.DemosaicAlgorithm) *isp.Pipeline {
		return &isp.Pipeline{
			Name:     fmt.Sprintf("demosaic-%d", algo),
			Demosaic: algo,
			Stages: []isp.Stage{
				isp.BlackLevel{Level: 0.02},
				isp.WhiteBalance{Auto: true, Strength: 1},
				isp.Gamma{SRGB: true},
				isp.ClampStage{},
			},
		}
	}
	var dngs []*sensor.RawImage
	var ids, labels []int
	for pi, phone := range benchRig.Phones {
		if !phone.RawCapable {
			continue
		}
		for _, it := range benchItems[:20] {
			rng := rand.New(rand.NewSource(fmath.Mix(benchRig.Seed, int64(it.ID), 2, int64(pi))))
			frame := phone.Sensor.Capture(benchRig.Screen.Display(it.Render(2), rng), rng)
			dngs = append(dngs, phone.DevelopRaw(frame))
			ids, labels = append(ids, it.ID*len(benchRig.Phones)+pi), append(labels, int(it.Class))
		}
	}
	angles := make([]int, len(dngs))
	var inst float64
	for i := 0; i < b.N; i++ {
		var recs []*stability.Record
		for _, p := range []*isp.Pipeline{mk(isp.DemosaicBilinear), mk(isp.DemosaicEdgeAware)} {
			images := make([]*imaging.Image, len(dngs))
			for j, dng := range dngs {
				images[j] = p.Process(dng).Quantize8()
			}
			r, _ := lab.ClassifyImages(benchModel, images, ids, angles, labels, p.Name, 3)
			recs = append(recs, r...)
		}
		inst = instability(recs).Percent()
	}
	b.ReportMetric(inst, "demosaic_only_instability_pct")
}

// BenchmarkAblationAlphaSweep: cross-device instability after two-images
// fine-tuning as a function of the stability-loss weight α. α=0 is the
// no-stability baseline; the useful range should beat it.
func BenchmarkAblationAlphaSweep(b *testing.B) {
	benchSetup(b)
	rig := lab.NewRig(42)
	trainSet := dataset.GenerateHard(20, 4300)
	testSet := dataset.GenerateHard(30, 4400)
	pairs := lab.CollectPairs(rig, trainSet.Items, []int{2})
	eval := lab.CollectPairs(rig, testSet.Items, []int{2})
	ids := make([]int, len(eval.Labels))
	anglesOf := make([]int, len(eval.Labels))
	for i := range ids {
		ids[i] = i
	}
	alphas := []float64{0, 0.1, 0.4}
	results := make([]float64, len(alphas))
	base := benchModel.TakeSnapshot()
	defer benchModel.Restore(base)
	for i := 0; i < b.N; i++ {
		for ai, alpha := range alphas {
			benchModel.Restore(base)
			train.FinetuneStability(benchModel, pairs.Clean, pairs.Labels, train.StabilityConfig{
				Config: train.Config{Epochs: 1, BatchSize: 8, LR: 0.012, Momentum: 0.9, ClipNorm: 5, Seed: 500},
				Alpha:  alpha,
				Loss:   train.LossEmbedding,
				Scheme: train.TwoImages{Companions: pairs.Companion},
			})
			s, _ := lab.ClassifyImages(benchModel, eval.Clean, ids, anglesOf, eval.Labels, "samsung", 1)
			ip, _ := lab.ClassifyImages(benchModel, eval.Companion, ids, anglesOf, eval.Labels, "iphone", 1)
			results[ai] = instability(append(s, ip...)).Percent()
		}
	}
	b.ReportMetric(results[0], "alpha_0_instability_pct")
	b.ReportMetric(results[1], "alpha_0.1_instability_pct")
	b.ReportMetric(results[2], "alpha_0.4_instability_pct")
}

// BenchmarkAblationEmbeddingWidth: does the width of the embedding layer
// change how well the embedding-distance loss stabilizes? Trains a narrow-
// embedding variant of the base model and compares post-fine-tune
// instability against the standard width.
func BenchmarkAblationEmbeddingWidth(b *testing.B) {
	benchSetup(b)
	rig := lab.NewRig(42)
	trainSet := dataset.GenerateHard(20, 4500)
	testSet := dataset.GenerateHard(30, 4600)
	pairs := lab.CollectPairs(rig, trainSet.Items, []int{2})
	eval := lab.CollectPairs(rig, testSet.Items, []int{2})
	ids := make([]int, len(eval.Labels))
	anglesOf := make([]int, len(eval.Labels))
	for i := range ids {
		ids[i] = i
	}
	measure := func(m *nn.Model) float64 {
		train.FinetuneStability(m, pairs.Clean, pairs.Labels, train.StabilityConfig{
			Config: train.Config{Epochs: 1, BatchSize: 8, LR: 0.012, Momentum: 0.9, ClipNorm: 5, Seed: 500},
			Alpha:  0.1,
			Loss:   train.LossEmbedding,
			Scheme: train.TwoImages{Companions: pairs.Companion},
		})
		s, _ := lab.ClassifyImages(m, eval.Clean, ids, anglesOf, eval.Labels, "samsung", 1)
		ip, _ := lab.ClassifyImages(m, eval.Companion, ids, anglesOf, eval.Labels, "iphone", 1)
		return instability(append(s, ip...)).Percent()
	}
	var wide, narrow float64
	base := benchModel.TakeSnapshot()
	defer benchModel.Restore(base)
	for i := 0; i < b.N; i++ {
		benchModel.Restore(base)
		wide = measure(benchModel)

		rng := rand.New(rand.NewSource(7))
		cfg := nn.DefaultConfig(int(dataset.NumClasses))
		cfg.EmbedDim = 12
		narrowModel := nn.NewMobileNetV2Micro(rng, cfg)
		set := dataset.Generate(60, 8)
		images, labels := dataset.TrainingImages(set, []int{0, 2, 4}, rng, true)
		train.Classifier(narrowModel, images, labels, train.Config{Epochs: 2, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: 9})
		narrow = measure(narrowModel)
	}
	b.ReportMetric(wide, "embed48_instability_pct")
	b.ReportMetric(narrow, "embed12_instability_pct")
}
