package lab

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/stability"
)

// tinyModel returns a fast 5-class model without pre-training.
func tinyModel(seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewMobileNetV2Micro(rng, nn.ModelConfig{InputHW: 16, Classes: int(dataset.NumClasses), EmbedDim: 8, Width: 0.5})
}

func TestRigCaptureAllCounts(t *testing.T) {
	rig := NewRig(1)
	items := dataset.Generate(3, 2).Items
	caps := rig.CaptureAll(items, []int{1, 3})
	want := 3 * 2 * len(rig.Phones)
	if len(caps) != want {
		t.Fatalf("got %d captures, want %d", len(caps), want)
	}
	for _, c := range caps {
		if c.Image == nil || c.Bytes <= 0 {
			t.Fatal("capture missing image or size")
		}
	}
}

func TestRigDeterministicAcrossRuns(t *testing.T) {
	items := dataset.Generate(2, 3).Items
	a := NewRig(7).CaptureAll(items, []int{2})
	b := NewRig(7).CaptureAll(items, []int{2})
	for i := range a {
		if imaging.MSE(a[i].Image, b[i].Image) != 0 {
			t.Fatalf("capture %d differs between identical rigs", i)
		}
	}
}

func TestRigSeedChangesCaptures(t *testing.T) {
	items := dataset.Generate(1, 4).Items
	a := NewRig(1).CaptureAll(items, []int{2})
	b := NewRig(2).CaptureAll(items, []int{2})
	if imaging.MSE(a[0].Image, b[0].Image) == 0 {
		t.Fatal("different rig seeds produced identical captures")
	}
}

func TestCaptureRepeatsDiffer(t *testing.T) {
	rig := NewRig(5)
	item := dataset.Generate(1, 6).Items[0]
	reps := rig.CaptureRepeats(rig.Phones[0], 0, item, 2, 3)
	if len(reps) != 3 {
		t.Fatalf("got %d repeats", len(reps))
	}
	if imaging.MSE(reps[0].Image, reps[1].Image) == 0 {
		t.Fatal("repeat shots must differ (sensor noise + flicker)")
	}
}

func TestClassifyEmitsOneRecordPerCapture(t *testing.T) {
	rig := NewRig(8)
	items := dataset.Generate(2, 9).Items
	caps := rig.CaptureAll(items, []int{2})
	m := tinyModel(10)
	recs := Classify(m, caps, 3)
	if len(recs) != len(caps) {
		t.Fatalf("got %d records for %d captures", len(recs), len(caps))
	}
	for i, r := range recs {
		if r.Env != caps[i].Phone || r.ItemID != caps[i].Item.ID || r.Angle != caps[i].Angle {
			t.Fatal("record metadata does not match capture")
		}
		if len(r.TopK) != 3 {
			t.Fatalf("TopK length %d", len(r.TopK))
		}
		if r.Score < 0 || r.Score > 1 {
			t.Fatalf("score %v", r.Score)
		}
	}
}

func TestClassifyImagesEnv(t *testing.T) {
	m := tinyModel(11)
	images := []*imaging.Image{imaging.New(16, 16), imaging.New(16, 16)}
	recs := ClassifyImages(m, images, []int{0, 1}, []int{0, 0}, []int{2, 3}, "jpeg-q50", 2)
	if len(recs) != len(images) {
		t.Fatalf("%d records for %d images", len(recs), len(images))
	}
	for i, r := range recs {
		if r.Env != "jpeg-q50" {
			t.Fatalf("env %q", r.Env)
		}
		if len(r.TopK) != 2 || r.TopK[0] != r.Pred || r.ItemID != i {
			t.Fatalf("record %d: item %d pred %d top-k %v", i, r.ItemID, r.Pred, r.TopK)
		}
	}
	if recs[0].TrueClass != 2 || recs[1].TrueClass != 3 {
		t.Fatal("labels not propagated")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "long-header"}}
	tab.AddRow("x", "1")
	tab.AddRow("yy", "2")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T\n", "long-header", "yy", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestBarScalesAndClamps(t *testing.T) {
	full := Bar("x", 10, 10, 10)
	if strings.Count(full, "█") != 10 {
		t.Fatalf("full bar: %q", full)
	}
	empty := Bar("x", 0, 10, 10)
	if strings.Count(empty, "█") != 0 {
		t.Fatalf("empty bar: %q", empty)
	}
	over := Bar("x", 20, 10, 10)
	if strings.Count(over, "█") != 10 {
		t.Fatalf("overflow bar must clamp: %q", over)
	}
	if !strings.Contains(Bar("label", 5, 10, 10), "label") {
		t.Fatal("bar must include its label")
	}
}

func TestSeriesRendersAllNames(t *testing.T) {
	var buf bytes.Buffer
	Series(&buf, "fig", []float64{0, 0.5}, map[string][]float64{
		"correct":   {1, 2},
		"incorrect": {2, 1},
	}, 10)
	out := buf.String()
	if !strings.Contains(out, "correct") || !strings.Contains(out, "incorrect") || !strings.Contains(out, "fig") {
		t.Fatalf("series output missing parts:\n%s", out)
	}
}

func TestLoadOrTrainBaseModelRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	cfg := BaseModelConfig{Seed: 3, TrainItems: 20, Epochs: 1, Width: 0.5}
	m1, err := LoadOrTrainBaseModel(cfg, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	m2, err := LoadOrTrainBaseModel(cfg, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded model must reproduce the trained model's outputs.
	x := dataset.Generate(1, 4).Items[0].Render(2)
	p1, _, _ := evalOne(m1, x)
	p2, _, _ := evalOne(m2, x)
	if p1 != p2 {
		t.Fatal("loaded model predicts differently from trained model")
	}
}

func evalOne(m *nn.Model, im *imaging.Image) (int, float64, []float64) {
	recs := ClassifyImages(m, []*imaging.Image{im}, []int{0}, []int{0}, []int{0}, "x", 1)
	return recs[0].Pred, recs[0].Score, nil
}

func TestLoadOrTrainRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := BaseModelConfig{Seed: 3, TrainItems: 5, Epochs: 1, Width: 0.5}
	if _, err := LoadOrTrainBaseModel(cfg, path, nil); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestClassifyConsistentWithStability(t *testing.T) {
	// End-to-end smoke: records from a tiny rig run feed the stability
	// metric without errors and group counts line up.
	rig := NewRig(16)
	items := dataset.Generate(4, 17).Items
	caps := rig.CaptureAll(items, []int{1, 3})
	recs := Classify(tinyModel(18), caps, 3)
	s := stability.NewAccumulator(recs...).Snapshot().Top1
	if s.Groups != 8 { // 4 items × 2 angles
		t.Fatalf("groups = %d, want 8", s.Groups)
	}
}

// TestRigCaptureAllWorkerInvariant checks that delegating a sweep to the
// fleet pool never changes results: every pooled sweep is bit-identical and
// in the same order for 1, 3 and 8 workers.
func TestRigCaptureAllWorkerInvariant(t *testing.T) {
	items := dataset.Generate(3, 5).Items
	angles := []int{0, 2}
	sweeps := map[string]func(*Rig) [][]byte{
		"CaptureAll": func(rig *Rig) (out [][]byte) {
			for _, c := range rig.CaptureAll(items, angles) {
				out = append(out, fmt.Append(c.Image.ToBytes(), c.Phone, c.Angle, c.Item.ID))
			}
			return out
		},
	}
	for name, sweep := range sweeps {
		var ref [][]byte
		for _, workers := range []int{1, 3, 8} {
			rig := NewRig(21)
			rig.Workers = workers
			got := sweep(rig)
			if ref == nil {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("%s workers=%d: %d shots, want %d", name, workers, len(got), len(ref))
			}
			for i := range got {
				if !bytes.Equal(got[i], ref[i]) {
					t.Fatalf("%s workers=%d: shot %d reordered or diverged", name, workers, i)
				}
			}
		}
	}
}

// TestRigCaptureRepeatsWorkerInvariant covers the repeat-shot sweep.
func TestRigCaptureRepeatsWorkerInvariant(t *testing.T) {
	item := dataset.Generate(1, 9).Items[0]
	seq := NewRig(13)
	seq.Workers = 1
	par := NewRig(13)
	par.Workers = 6
	a := seq.CaptureRepeats(seq.Phones[0], 0, item, 1, 5)
	b := par.CaptureRepeats(par.Phones[0], 0, item, 1, 5)
	for i := range a {
		if !bytes.Equal(a[i].Image.ToBytes(), b[i].Image.ToBytes()) {
			t.Fatalf("repeat %d diverged between worker counts", i)
		}
	}
}

// TestStageExperimentShapes checks what the single-stage experiments return
// against what their front ends index into.
func TestStageExperimentShapes(t *testing.T) {
	m := tinyModel(22)
	rig := NewRig(23)
	items := dataset.Generate(3, 24).Items

	t.Run("RepeatShots", func(t *testing.T) {
		caps, recs := RepeatShots(m, rig, 1, items, 2, 4)
		if len(caps) != len(items)*4 || len(recs) != len(caps) {
			t.Fatalf("%d captures, %d records", len(caps), len(recs))
		}
		if s := stability.NewAccumulator(recs...).Snapshot().Top1; s.Groups != len(items) {
			t.Fatalf("%d groups, want one per item", s.Groups)
		}
	})

	t.Run("OSDecode", func(t *testing.T) {
		for _, tc := range []struct {
			codec     codec.Codec
			identical bool // every device decodes the same pixels
		}{{codec.NewPNG(), true}, {codec.NewJPEG(90), false}} {
			files := dataset.FixedSet(4, 25, tc.codec)
			rows, recs := OSDecode(m, files)
			if len(rows) != len(device.FirebasePhones()) || len(recs) != len(rows)*len(files) {
				t.Fatalf("%s: %d rows, %d records", tc.codec.Name(), len(rows), len(recs))
			}
			identical := true
			for _, r := range rows {
				identical = identical && r.HashMatches == len(files)
			}
			if identical != tc.identical {
				t.Fatalf("%s: decodes identical everywhere = %v, want %v", tc.codec.Name(), identical, tc.identical)
			}
			if s := stability.NewAccumulator(recs...).Snapshot().Top1; tc.identical && s.Unstable != 0 {
				t.Fatalf("%s: identical pixels yet %s", tc.codec.Name(), s)
			}
		}
	})
}
