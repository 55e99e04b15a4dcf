// Integration tests: run miniature versions of the paper's experiments
// end-to-end and assert the *shape* of the findings rather than absolute
// numbers — the properties the reproduction must preserve.
package repro

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/stability"
)

func TestIntegrationEndToEndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs endtoend.run.json on the committed model")
	}
	benchSetup(t)

	// 1. Accuracy must be in a useful regime — neither chance nor
	//    saturated — on every phone (paper: 59-64%).
	snap := stability.NewAccumulator(benchRecords...).Snapshot()
	for _, e := range snap.ByEnv {
		if e.Accuracy < 0.4 || e.Accuracy > 0.95 {
			t.Errorf("%s accuracy %.2f outside the paper's regime", e.Env, e.Accuracy)
		}
	}

	// 2. Cross-phone instability must be substantial (paper: 14-17%)
	//    despite flat accuracy.
	inst := snap.Top1
	if inst.Percent() < 5 {
		t.Errorf("cross-phone instability %.2f%% implausibly low", inst.Percent())
	}
	if inst.Percent() > 45 {
		t.Errorf("cross-phone instability %.2f%% implausibly high", inst.Percent())
	}

	// 3. Top-3 classification must improve both accuracy and instability
	//    (paper Fig 9).
	if snap.TopKAccuracy <= snap.Accuracy {
		t.Error("top-3 accuracy not above top-1")
	}
	if snap.TopK.Rate() >= inst.Rate() {
		t.Error("top-3 instability not below top-1")
	}

	// 4. Unstable predictions must be less confident than stable-correct
	//    ones on average (paper Fig 4).
	split := stability.SplitScores(benchRecords)
	if len(split.UnstableCorrect) > 0 && len(split.StableCorrect) > 0 {
		if metrics.Mean(split.UnstableCorrect) >= metrics.Mean(split.StableCorrect) {
			t.Error("unstable predictions not less confident than stable ones")
		}
	}
}

func TestIntegrationOSExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs endtoend.run.json on the committed model")
	}
	benchSetup(t)

	// PNG decodes identically everywhere → zero instability (paper §7).
	if png := osInstability(t, "file:png"); png != 0 {
		t.Errorf("PNG OS instability %.2f%%, want exactly 0", png)
	}
	// JPEG decoder divergence is real but tiny compared to end-to-end.
	jpeg := osInstability(t, "file:jpeg:90")
	e2e := instability(benchRecords).Percent()
	if jpeg >= e2e {
		t.Errorf("OS-only instability %.2f%% not ≪ end-to-end %.2f%%", jpeg, e2e)
	}
}

func TestIntegrationDecoderHashDivergence(t *testing.T) {
	// The §7 MD5 methodology: the two phones on the nearest-neighbour chroma
	// path hash one JPEG file differently from the other three, and every
	// phone hashes one PNG file identically.
	scene := fleet.Items(99, 1)[0].Render(2)
	phones := device.LabPhones()
	for _, c := range []codec.Codec{codec.NewJPEG(90), codec.NewPNG()} {
		file := c.Encode(scene)
		for _, ph := range phones {
			same := ph.DecodeHash(file) == phones[0].DecodeHash(file)
			wantSame := ph.Decode == phones[0].Decode || c.Name() == "png"
			if same != wantSame {
				t.Errorf("%s on %s: hash match = %v, want %v", c.Name(), ph.Name, same, wantSame)
			}
		}
	}
}

func TestIntegrationWithinPhoneBelowCrossPhone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs endtoend.run.json on the committed model")
	}
	benchSetup(t)

	// Paper Fig 3(d): repeat-shot instability on one phone is much lower
	// than cross-phone instability.
	_, recs := repeatShots(benchDevices[0], benchItems[:15], 4)
	within := instability(recs).Rate()
	cross := instability(benchRecords).Rate()
	if within >= cross {
		t.Errorf("within-phone instability %.2f not below cross-phone %.2f", within*100, cross*100)
	}
}

func TestIntegrationCompressionAccuracyFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs endtoend.run.json on the committed model")
	}
	benchSetup(t)

	// Paper Tables 2-3: codec choice barely moves accuracy yet creates
	// instability. Compare per-codec accuracies and the joint instability.
	runs, accs := formatRuns(studyItems, []int{1, 3}, codecFormats...)
	if crossFormat(accs).Unstable == 0 {
		t.Error("format instability is zero — codecs too benign")
	}
	var min, max float64 = 1, 0
	for _, r := range runs {
		if r.Accuracy < min {
			min = r.Accuracy
		}
		if r.Accuracy > max {
			max = r.Accuracy
		}
	}
	if max-min > 0.10 {
		t.Errorf("accuracy spread across codecs %.1f%% — paper finds it nearly flat", (max-min)*100)
	}
}
