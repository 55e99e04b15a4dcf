package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/stability"
	"repro/internal/train"
)

// explainConfig is a small one-shot run on base.model with both stable and
// unstable groups.
var explainConfig = Config{Devices: 8, Items: 4, Angles: []int{0, 2}, Seed: 11, Workers: 2}

// TestExplainGolden pins every group's explanation on base.model, and holds
// each to the run: a group has a pair exactly when the run's accumulator
// calls it unstable, and the pair's sizes and predictions are the run's own
// cells.
func TestExplainGolden(t *testing.T) {
	factory := baseModelFactory(t)
	cfg := explainConfig.WithDefaults()
	var exs []Explanation
	for item := 0; item < cfg.Items; item++ {
		for _, angle := range cfg.Angles {
			ex, err := Explain(cfg, factory, item, angle)
			if err != nil {
				t.Fatal(err)
			}
			exs = append(exs, ex)
		}
	}
	got, err := json.MarshalIndent(exs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/explain.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("explanations differ from testdata/explain.golden:\n%s", got)
	}

	r := NewRunner(cfg, factory)
	r.Run()
	items := Items(cfg.Seed, cfg.Items)
	gen, eng := NewGenerator(cfg.Seed, cfg.Scale, 0), NewEngine(cfg.Seed, cfg.Scale, 0)
	unstable := 0
	for _, ex := range exs {
		key := stability.GroupKey{ItemID: items[ex.Item].ID, Angle: ex.Angle}
		if r.Accumulator().Unstable(key) != (ex.A != nil) {
			t.Fatalf("group %+v: the run calls it unstable %v, the explanation has a pair %v", key, r.Accumulator().Unstable(key), ex.A != nil)
		}
		if ex.A == nil {
			continue
		}
		unstable++
		for _, c := range []*ExplainedCell{ex.A, ex.B} {
			dev := gen.Device(c.Device)
			img, size := eng.Capture(dev, items[ex.Item], ex.Angle)
			preds, _, _ := train.EvaluateIn(new(nn.Scratch), factory(dev.Profile.RuntimeName()), []*imaging.Image{img}, 64)
			if size != c.Bytes || preds[0] != c.Pred {
				t.Fatalf("group %+v device %d: explained as %d bytes, class %d; the run's cell is %d bytes, class %d",
					key, c.Device, c.Bytes, c.Pred, size, preds[0])
			}
		}
	}
	if unstable == 0 || unstable == len(exs) {
		t.Fatalf("%d of %d groups unstable; the golden needs both kinds", unstable, len(exs))
	}
}

// TestExplainRefusesOutsideTheRun: an item or angle the run does not
// photograph is an error, not an empty explanation.
func TestExplainRefusesOutsideTheRun(t *testing.T) {
	for _, q := range []struct{ item, angle int }{{-1, 0}, {4, 0}, {0, 1}} {
		_, err := Explain(explainConfig, testFactory(), q.item, q.angle)
		if err == nil || !strings.HasPrefix(err.Error(), "fleet: explain") {
			t.Errorf("item %d angle %d: err %v, want a refusal", q.item, q.angle, err)
		}
	}
}
