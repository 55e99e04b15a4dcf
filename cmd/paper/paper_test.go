package main

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lab"
)

// TestGolden pins every report's stdout to what the seven binaries this one
// replaced printed for the same flags and -model snapshot: testdata/*.golden
// were generated from them at the commit that deleted them. The snapshot is
// a deliberately under-trained model — near the decision boundaries, so a
// changed seed formula or stage order moves the numbers — and is
// deterministic in its configuration.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	log.SetOutput(io.Discard) // the progress lines
	defer log.SetOutput(os.Stderr)
	model := filepath.Join(t.TempDir(), "tiny.snap")
	if _, err := lab.LoadOrTrainBaseModel(lab.BaseModelConfig{Seed: 7, TrainItems: 60, Epochs: 2, Width: 1}, model, nil); err != nil {
		t.Fatal(err)
	}
	report := func(args ...string) string {
		var out bytes.Buffer
		if err := run(append([]string{"-items", "6", "-model", model}, args...), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	golden := func(name string) string {
		b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for _, args := range [][]string{
		{"-repeats", "2", "-repeat-items", "2", "endtoend"},
		{"os"},
	} {
		name := args[len(args)-1]
		if got, want := report(args...), golden(name); got != want {
			t.Errorf("paper %s:\n%s\nwant:\n%s", strings.Join(args, " "), got, want)
		}
	}
}

// TestNegativeCountIsUsageError: a negative count flag is a usage error
// returned before the model is loaded or trained (the snapshot path is left
// unwritten), not a panic in the first make or slice to read it.
func TestNegativeCountIsUsageError(t *testing.T) {
	model := filepath.Join(t.TempDir(), "never.snap")
	for _, args := range [][]string{
		{"-items", "-1", "endtoend"},
		{"-repeat-items", "-2", "endtoend"},
		{"-repeats", "-1", "endtoend"},
	} {
		err := run(append([]string{"-model", model}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), args[0]+" "+args[1]) || !strings.Contains(err.Error(), usage) {
			t.Errorf("paper %s: error %v, want a usage error naming %s %s", strings.Join(args, " "), err, args[0], args[1])
		}
		if _, err := os.Stat(model); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("paper %s: a model was trained (stat: %v)", strings.Join(args, " "), err)
		}
	}
}
