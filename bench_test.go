// Package repro's benchmark harness regenerates every table and figure of
// the paper at reduced scale: one benchmark per table/figure plus the
// ablations of ablation_bench_test.go. Key results are attached as custom
// benchmark metrics (instability_pct, accuracy_pct, ...), so
//
//	go test -bench=. -benchmem
//
// prints the rows the paper reports. Every study classifies on the committed
// base model, bench/testdata/base.model, loaded once per process; the
// end-to-end figures and Table 5 run the configs of
// examples/specs/endtoend.run.json and os.experiment.json on it, the other
// studies are scaled down so the full suite completes in minutes on one core
// (the fleetd specs run the full-scale versions). Every measurement is a
// fleet run — the path the experiment specs take — or, for the figures that
// read single photos (Figure 4's score split, the repeat shots of Figures 1
// and 3(d)), a short replay of a run's own captures that is held to the run;
// this file only reduces what comes back to metrics.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/imaging"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/stability"
	"repro/internal/train"
)

var (
	benchOnce    sync.Once
	benchFactory fleet.BackendFactory
	benchRun     fleet.Config // endtoend.run.json's run, defaulted
	benchItems   []*dataset.Item
	benchDevices []*fleet.Device
	benchRecords []*stability.Record
)

// benchSetup loads the committed model and takes the shared end-to-end photo
// matrix once per process: endtoend.run.json's run, held byte for byte to the
// stats its golden pins, and replayed by hand so the figures can read its
// records, held to the run's own accumulator.
func benchSetup(tb testing.TB) {
	tb.Helper()
	benchOnce.Do(func() {
		model, err := lab.LoadBaseModel(filepath.Join("bench", "testdata", "base.model"))
		if err != nil {
			tb.Fatal(err)
		}
		benchFactory = fleet.BackendReplicator(lab.DefaultBaseModel().Arch, model)
		var spec fleetapi.RunSpec
		readSpec(tb, "endtoend.run.json", &spec)
		benchRun = spec.FleetConfig().WithDefaults()
		benchItems = fleet.Items(benchRun.Seed, benchRun.Items)
		gen := fleet.NewGenerator(benchRun.Seed, benchRun.Scale, 0)
		for i := 0; i < benchRun.Devices; i++ {
			benchDevices = append(benchDevices, gen.Device(i))
		}
		run := fleet.NewRunner(benchRun, benchFactory)
		golden, err := os.ReadFile(filepath.Join("examples", "testdata", "endtoend.run.golden"))
		if err != nil {
			tb.Fatal(err)
		}
		if got := run.Run().JSON(); !bytes.Equal(got, golden) {
			tb.Fatalf("endtoend.run.json's run is not its golden:\n got %s\nwant %s", got, golden)
		}
		_, benchRecords = shoot(benchDevices, benchItems, benchRun.Angles, (*fleet.Engine).Capture)
		if got, want := stability.NewAccumulator(benchRecords...).Snapshot(), run.Accumulator().Snapshot(); !reflect.DeepEqual(got, want) {
			tb.Fatalf("the replay of endtoend.run.json is not its run:\n got %+v\nwant %+v", got, want)
		}
	})
}

// readSpec decodes examples/specs/<name> as fleetd does: unknown fields
// refused.
func readSpec(tb testing.TB, name string, v any) {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("examples", "specs", name))
	if err != nil {
		tb.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
}

// capture takes one photo of a cell: (*fleet.Engine).Capture is a one-shot
// run's, Engine.CaptureEpoch a later shot of the same cell.
type capture func(e *fleet.Engine, d *fleet.Device, it *dataset.Item, angle int) (*imaging.Image, int)

// shoot photographs items at angles with every device and classifies the
// photos as benchRun's sweep does — on the run's engine, each device's cells
// in item-major order through one train.Evaluate on a backend of its
// runtime — and returns the photos beside one record per photo, in the same
// device-major order. A record's Env is its device's name.
func shoot(devices []*fleet.Device, items []*dataset.Item, angles []int, take capture) ([]*imaging.Image, []*stability.Record) {
	engine := fleet.NewEngine(benchRun.Seed, benchRun.Scale, 0)
	var images []*imaging.Image
	var records []*stability.Record
	for _, d := range devices {
		runtime := benchRun.Runtime
		if runtime == "" {
			runtime = d.Profile.RuntimeName()
		}
		var photos []*imaging.Image
		for _, it := range items {
			for _, a := range angles {
				img, _ := take(engine, d, it, a)
				photos = append(photos, img)
			}
		}
		preds, scores, probs := train.Evaluate(benchFactory(runtime), photos, benchRun.BatchSize)
		topks := train.TopKOf(probs, benchRun.TopK)
		for i := range photos {
			it, a := items[i/len(angles)], angles[i%len(angles)]
			records = append(records, &stability.Record{
				ItemID: it.ID, Angle: a, TrueClass: int(it.Class), Env: d.Profile.Name, Runtime: runtime,
				Pred: preds[i], Score: scores[i], TopK: topks[i],
			})
		}
		images = append(images, photos...)
	}
	return images, records
}

// repeatShots photographs items at angle 2 with one device n times, shutter
// presses seconds apart (Figure 1, Figure 3(d)): shot k is the cell's
// CaptureEpoch at epoch k, so only the sensor noise is drawn afresh. Shot k's
// photos and records are item-ordered, and its records' Env is "shot-k", so
// the instability of all n shots' records is the within-phone instability.
func repeatShots(d *fleet.Device, items []*dataset.Item, n int) ([][]*imaging.Image, []*stability.Record) {
	var shots [][]*imaging.Image
	var records []*stability.Record
	for k := 0; k < n; k++ {
		epoch := func(e *fleet.Engine, d *fleet.Device, it *dataset.Item, angle int) (*imaging.Image, int) {
			return e.CaptureEpoch(d, it, angle, k)
		}
		photos, recs := shoot([]*fleet.Device{d}, items, []int{2}, epoch)
		for _, r := range recs {
			r.Env = fmt.Sprintf("shot-%d", k)
		}
		shots, records = append(shots, photos), append(records, recs...)
	}
	return shots, records
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
		shots, recs := repeatShots(benchDevices[0], benchItems, 2)
		n := len(benchItems)
		flips, fracSum := 0, 0.0
		for j := 0; j < n; j++ {
			if recs[j].Pred != recs[n+j].Pred {
				flips++
			}
			_, f := imaging.DiffMask(shots[0][j], shots[1][j], 0.05)
			fracSum += f
		}
		flipRate = float64(flips) / float64(n)
		diffFrac = fracSum / float64(n)
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
		_, recs := repeatShots(benchDevices[0], benchItems[:15], 6)
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

// studyItems is the item count of the format and model runs.
const studyItems = 30

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
		}, benchFactory)
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
		runs, accs := formatRuns(studyItems, []int{1, 3}, formats...)
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

// BenchmarkTable5ProcessorOS: byte-identical files decoded by five devices
// whose only difference left is the OS decoder (paper: 0.64% on JPEG, 0% on
// PNG).
func BenchmarkTable5ProcessorOS(b *testing.B) {
	benchSetup(b)
	var jpegInst, pngInst float64
	for i := 0; i < b.N; i++ {
		jpegInst = osInstability(b, "file:jpeg:90")
		pngInst = osInstability(b, "file:png")
	}
	b.ReportMetric(jpegInst, "jpeg_instability_pct")
	b.ReportMetric(pngInst, "png_instability_pct")
}

// osInstability is the §7 cross-device instability, in percent, of
// os.experiment.json's arm with the given format, run on the bench model.
func osInstability(tb testing.TB, format string) float64 {
	var spec fleetapi.ExperimentSpec
	readSpec(tb, "os.experiment.json", &spec)
	for _, arm := range spec.Arms() {
		if arm.Spec.Format == format {
			return fleet.NewRunner(arm.Spec.FleetConfig(), benchFactory).Run().Top1.Percent
		}
	}
	tb.Fatalf("os.experiment.json has no %s arm", format)
	return 0
}

// BenchmarkTable6aEmbeddingLoss: stability fine-tuning with the embedding
// distance loss (paper ordering: two-images best, no-noise worst).
func BenchmarkTable6aEmbeddingLoss(b *testing.B) {
	benchTable6(b, "")
}

// BenchmarkTable6bKLLoss: stability fine-tuning with the relative entropy
// loss.
func BenchmarkTable6bKLLoss(b *testing.B) {
	benchTable6(b, ":kl")
}

// modelRuns runs one fleet run per model over factory's float32 runtime:
// devices 0 and 1 (the samsung and iphone cohorts, the pair a stable model
// is fine-tuned to agree on) photograph studyItems items at angles 1–3. Every
// run photographs the same cells, so the runs differ only in their weights.
// A run's top-1 instability is the cross-phone instability of Table 6.
func modelRuns(factory fleet.BackendFactory, models ...string) []fleet.Stats {
	stats := make([]fleet.Stats, len(models))
	for i, m := range models {
		stats[i] = fleet.NewRunner(fleet.Config{
			Devices: 2, Items: studyItems, Angles: []int{1, 2, 3}, Seed: 42,
			Runtime: nn.RuntimeFloat32, Model: m,
		}, factory).Run()
	}
	return stats
}

// benchTable6 reports one Table 6 column: the bench model fine-tuned under
// every noise scheme with one loss (loss is the model suffix, "" or ":kl"),
// each scheme at its Table 6 α, and plain fine-tuning.
func benchTable6(b *testing.B, loss string) {
	benchSetup(b)
	schemes := []string{"two-images", "subsample", "distortion", "gaussian"}
	models := []string{"stable:none"}
	for _, s := range schemes {
		models = append(models, "stable:"+s+loss)
	}
	var runs []fleet.Stats
	for i := 0; i < b.N; i++ {
		runs = modelRuns(benchFactory, models...)
	}
	b.ReportMetric(runs[0].Top1.Percent, "no_noise_instability_pct")
	for i, s := range schemes {
		b.ReportMetric(runs[i+1].Top1.Percent, strings.ReplaceAll(s, "-", "_")+"_instability_pct")
	}
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
