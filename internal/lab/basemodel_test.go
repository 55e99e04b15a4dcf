package lab

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/train"
)

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
	preds, scores, probs := train.Evaluate(m, []*imaging.Image{im}, 1)
	return preds[0], scores[0], probs[0]
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
