// Ablation benchmarks for the design choices of the simulation and the
// mitigation: each isolates one knob and reports how the instability metric
// responds.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/fmath"
	"repro/internal/imaging"
	"repro/internal/isp"
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
		_, n := formatRuns(studyItems, []int{1, 3}, "jpeg:95", "jpeg:85", "jpeg:75")
		_, w := formatRuns(studyItems, []int{1, 3}, "jpeg:95", "jpeg:60", "jpeg:25")
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
			_, recs := repeatShots(device0WithNoiseScale(scale), benchItems[:15], 6)
			results[li] = instability(recs).Percent()
		}
	}
	b.ReportMetric(results[0], "noise_x0.5_instability_pct")
	b.ReportMetric(results[1], "noise_x1_instability_pct")
	b.ReportMetric(results[2], "noise_x2_instability_pct")
}

// device0WithNoiseScale copies the run's device 0 (the Samsung cohort) with
// its sensor noise scaled.
func device0WithNoiseScale(scale float64) *fleet.Device {
	d := *benchDevices[0]
	params := d.Sensor.Params
	params.ShotNoise *= scale
	params.ReadNoise *= scale
	d.Sensor = sensor.New(params)
	return &d
}

// BenchmarkAblationDemosaic: the instability contribution of the demosaic
// algorithm alone — two pipelines identical except for the interpolator,
// developing the same raw files of the two raw-capable phones. The
// pipelines are no format value, so this one benchmark develops for itself.
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
	// Each raw-capable device's photo of a cell is developed from the sensor
	// frame the run's own capture of that cell draws; each photo is its own
	// group and each pipeline an environment.
	var raw []*fleet.Device
	for _, d := range benchDevices {
		if d.Profile.RawCapable {
			raw = append(raw, d)
		}
	}
	var inst float64
	for i := 0; i < b.N; i++ {
		var recs []*stability.Record
		for _, p := range []*isp.Pipeline{mk(isp.DemosaicBilinear), mk(isp.DemosaicEdgeAware)} {
			develop := func(e *fleet.Engine, d *fleet.Device, it *dataset.Item, a int) (*imaging.Image, int) {
				rng := rand.New(rand.NewSource(fmath.Mix(benchRun.Seed, 2, int64(d.ID), int64(it.ID), int64(a))))
				return p.Process(d.Profile.DevelopRaw(d.Sensor.Capture(e.Displayed(it, a), rng))).Quantize8(), 0
			}
			_, r := shoot(raw, benchItems[:20], []int{2}, develop)
			for j, rec := range r {
				rec.ItemID, rec.Env = j, p.Name
			}
			recs = append(recs, r...)
		}
		inst = instability(recs).Percent()
	}
	b.ReportMetric(inst, "demosaic_only_instability_pct")
}

// BenchmarkAblationAlphaSweep: cross-device instability after two-images
// fine-tuning as a function of the stability-loss weight α, the @α of the
// model. α=0 is the no-stability baseline; the useful range should beat it.
func BenchmarkAblationAlphaSweep(b *testing.B) {
	benchSetup(b)
	var runs []fleet.Stats
	for i := 0; i < b.N; i++ {
		runs = modelRuns(benchFactory, "stable:two-images@0", "stable:two-images@0.1", "stable:two-images@0.4")
	}
	b.ReportMetric(runs[0].Top1.Percent, "alpha_0_instability_pct")
	b.ReportMetric(runs[1].Top1.Percent, "alpha_0.1_instability_pct")
	b.ReportMetric(runs[2].Top1.Percent, "alpha_0.4_instability_pct")
}

// BenchmarkAblationEmbeddingWidth: does the width of the embedding layer
// change how well the embedding-distance loss stabilizes? Trains a narrow-
// embedding variant of the base model and compares post-fine-tune
// instability against the standard width: the same stable:two-images model
// arm over each model's replicator.
func BenchmarkAblationEmbeddingWidth(b *testing.B) {
	benchSetup(b)
	cfg := nn.DefaultConfig(int(dataset.NumClasses))
	cfg.EmbedDim = 12
	narrowArch := func() *nn.Model { return nn.NewMobileNetV2Micro(rand.New(rand.NewSource(7)), cfg) }
	var wide, narrow float64
	for i := 0; i < b.N; i++ {
		wide = modelRuns(benchFactory, "stable:two-images")[0].Top1.Percent

		rng := rand.New(rand.NewSource(7))
		narrowModel := nn.NewMobileNetV2Micro(rng, cfg)
		set := dataset.Generate(60, 8)
		images, labels := dataset.TrainingImages(set, []int{0, 2, 4}, rng, true)
		train.Classifier(narrowModel, images, labels, train.Config{Epochs: 2, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: 9})
		narrow = modelRuns(fleet.BackendReplicator(narrowArch, narrowModel), "stable:two-images")[0].Top1.Percent
	}
	b.ReportMetric(wide, "embed48_instability_pct")
	b.ReportMetric(narrow, "embed12_instability_pct")
}
