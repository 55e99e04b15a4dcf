package lab

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/nn"
)

// LoadBaseModel reads the snapshot at path into DefaultBaseModel's
// architecture, e.g. the committed bench/testdata/base.model. It never
// trains: a missing file is an error.
func LoadBaseModel(path string) (*nn.Model, error) {
	return DefaultBaseModel().load(path)
}

// load reads the snapshot at path into cfg's architecture.
func (cfg BaseModelConfig) load(path string) (*nn.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := nn.ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("lab: reading model snapshot %s: %w", path, err)
	}
	m := cfg.Arch()
	m.Restore(snap)
	return m, nil
}

// LoadOrTrainBaseModel returns the base model, loading its weights from
// path when the file exists and training + saving otherwise. Experiment
// binaries share one snapshot so the (CPU-trained) baseline is paid for
// once. An empty path always trains.
func LoadOrTrainBaseModel(cfg BaseModelConfig, path string, logf func(string, ...any)) (*nn.Model, error) {
	if path != "" {
		m, err := cfg.load(path)
		if err == nil {
			if logf != nil {
				logf("loaded base model from %s (%d params)", path, m.NumParams())
			}
			return m, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	if logf != nil {
		logf("training base model (items=%d epochs=%d)...", cfg.TrainItems, cfg.Epochs)
	}
	m := trainBaseModel(cfg)
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
