// Package lab holds the paper's shared base classifier: the stand-in for
// "MobileNetV2 pre-trained on ImageNet" every experiment classifies with,
// its architecture factory, and the snapshot cache that lets a binary load
// it instead of training it again.
package lab

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/train"
)

// BaseModelConfig controls the shared pre-trained classifier. Defaults are
// tuned so the model lands in the paper's accuracy regime (roughly 55–65% on
// phone captures) rather than saturating: instability is only observable
// when predictions live near decision boundaries, exactly as MobileNetV2
// does on the paper's hard five-class subset.
type BaseModelConfig struct {
	Seed       int64
	TrainItems int
	Epochs     int
	Width      float64
}

// DefaultBaseModel is the configuration of the committed snapshot,
// bench/testdata/base.model, which fleetd, the benchmark and every test that
// classifies load.
func DefaultBaseModel() BaseModelConfig {
	return BaseModelConfig{Seed: 7, TrainItems: 300, Epochs: 6, Width: 1.0}
}

// Arch builds the untrained architecture this configuration trains:
// weight-initialization-identical on every call, which is what snapshot
// restores and the fleet's compiled backends require. Every binary that needs an
// architecture factory for the base model must use this — a hand-rolled
// copy that drifts from it silently stops matching trained snapshots.
func (cfg BaseModelConfig) Arch() *nn.Model {
	return cfg.arch(rand.New(rand.NewSource(cfg.Seed)))
}

// arch is the package's one architecture constructor. The caller owns rng:
// training keeps drawing augmentation from the same stream after init.
func (cfg BaseModelConfig) arch(rng *rand.Rand) *nn.Model {
	mcfg := nn.DefaultConfig(int(dataset.NumClasses))
	mcfg.Width = cfg.Width // nn reads 0 as 1.0
	return nn.NewMobileNetV2Micro(rng, mcfg)
}

// trainBaseModel trains the stand-in for "MobileNetV2 pre-trained on
// ImageNet": a micro MobileNetV2 trained on clean renders with photometric
// augmentation. The returned model is deterministic in cfg.Seed.
//
// The rng stream is shared between weight init and augmentation on purpose
// (splitting it would change every documented result); Arch() reproduces
// only the initialization prefix of that stream, which is all a snapshot
// restore needs.
func trainBaseModel(cfg BaseModelConfig) *nn.Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := cfg.arch(rng)

	set := dataset.Generate(cfg.TrainItems, cfg.Seed+1)
	images, labels := dataset.TrainingImages(set, []int{0, 2, 4}, rng, true)
	train.Classifier(m, images, labels, train.Config{
		Epochs:    cfg.Epochs,
		BatchSize: 32,
		LR:        0.05,
		Momentum:  0.9,
		Seed:      cfg.Seed + 2,
	})
	return m
}
