package main

import (
	"bytes"
	"io"
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

	endtoend := []string{"-repeats", "2", "-repeat-items", "2", "endtoend"}
	for _, args := range [][]string{
		endtoend,
		{"-gallery", "compress"},
		{"isp"},
		{"os"},
		{"raw"},
		{"topk"},
		{"-train-items", "8", "-test-items", "8", "-epochs", "1", "-pr", "stability"},
	} {
		name := args[len(args)-1]
		if got, want := report(args...), golden(name); got != want {
			t.Errorf("paper %s:\n%s\nwant:\n%s", strings.Join(args, " "), got, want)
		}
	}
	// topk after endtoend re-scores the same capture matrix.
	if got, want := report(append(endtoend, "topk")...), golden("endtoend")+golden("topk"); got != want {
		t.Errorf("paper endtoend topk differs from the two reports run apart:\n%s", got)
	}
}
