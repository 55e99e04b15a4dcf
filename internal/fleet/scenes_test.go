package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/lab"
)

// TestRunRendersSceneSetOnce: endtoend.run.json's scene set (120 items × 5
// angles = 600 frames) overflows the default 512-frame LRU, which its five
// devices, photographing the frames in the same order, would cycle through
// and re-render on every capture. Its frames fit the run's byte budget, so
// the run renders each exactly once; its stats equal a one-worker run's and
// the spec's golden.
func TestRunRendersSceneSetOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("a 3,000-capture run on the committed model")
	}
	body, err := os.ReadFile("../../examples/specs/endtoend.run.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	if err := json.Unmarshal(body, &cfg); err != nil {
		t.Fatal(err)
	}
	base, err := lab.LoadBaseModel("../../bench/testdata/base.model")
	if err != nil {
		t.Fatal(err)
	}
	factory := BackendReplicator(lab.DefaultBaseModel().Arch, base)
	want, err := os.ReadFile("../../examples/testdata/endtoend.run.golden")
	if err != nil {
		t.Fatal(err)
	}
	frames := int64(cfg.Items * len(cfg.Angles))
	for _, workers := range []int{2, 1} {
		cfg.Workers = workers
		r := NewRunner(cfg, factory)
		got := r.Run().JSON()
		if n := r.SceneFills(); n != frames {
			t.Errorf("workers=%d: %d frames rendered, want each of the %d once", workers, n, frames)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: stats differ from endtoend.run.golden:\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestRunOverSceneBudget: a scene set whose frames exceed the byte budget
// (1,370 frames at scale 1) is not rendered up front and runs on the
// default LRU, with the same bytes at 1 and 2 workers.
func TestRunOverSceneBudget(t *testing.T) {
	cfg := Config{Devices: 2, Items: 274, Angles: []int{0, 1, 2, 3, 4}, Seed: 9, Scale: 1}
	if sceneSetCap(cfg.Items*len(cfg.Angles), cfg.Scale) != 0 {
		t.Fatal("the scene set fits the budget; the test needs one that does not")
	}
	var want []byte
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		r := NewRunner(cfg, testFactory())
		if r.prefetch {
			t.Fatalf("workers=%d: a scene set over the budget is rendered up front", workers)
		}
		got := r.Run().JSON()
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: stats differ from the one-worker run:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestSceneSetCap pins the budget's frame counts at the two fleet scales.
func TestSceneSetCap(t *testing.T) {
	for _, tc := range []struct{ frames, scale, want int }{
		{1365, 1, 1365}, {1366, 1, 0}, {5461, 2, 5461}, {5462, 2, 0}, {600, 1, 600}, {1, 0, 1},
	} {
		if got := sceneSetCap(tc.frames, tc.scale); got != tc.want {
			t.Errorf("sceneSetCap(%d, %d) = %d, want %d", tc.frames, tc.scale, got, tc.want)
		}
	}
}
