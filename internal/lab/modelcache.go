package lab

import (
	"fmt"
	"os"

	"repro/internal/nn"
)

// LoadOrTrainBaseModel returns the base model, loading its weights from
// path when the file exists and training + saving otherwise. Experiment
// binaries share one snapshot so the (CPU-trained) baseline is paid for
// once. An empty path always trains.
func LoadOrTrainBaseModel(cfg BaseModelConfig, path string, logf func(string, ...any)) (*nn.Model, error) {
	if path != "" {
		if f, err := os.Open(path); err == nil {
			defer f.Close()
			snap, err := nn.ReadSnapshot(f)
			if err != nil {
				return nil, fmt.Errorf("lab: reading model snapshot %s: %w", path, err)
			}
			m := cfg.Arch()
			m.Restore(snap)
			if logf != nil {
				logf("loaded base model from %s (%d params)", path, m.NumParams())
			}
			return m, nil
		}
	}
	if logf != nil {
		logf("training base model (items=%d epochs=%d)...", cfg.TrainItems, cfg.Epochs)
	}
	m := TrainBaseModel(cfg)
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("lab: creating model snapshot %s: %w", path, err)
		}
		defer f.Close()
		if _, err := m.TakeSnapshot().WriteTo(f); err != nil {
			return nil, fmt.Errorf("lab: writing model snapshot: %w", err)
		}
		if logf != nil {
			logf("saved base model to %s", path)
		}
	}
	return m, nil
}
