package main

import (
	"fmt"
	"log"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/stability"
)

func (s *session) bar(label string, value, max float64) {
	fmt.Fprintln(s.out, lab.Bar(label, value, max, 40))
}

// endtoend regenerates Figure 3 (accuracy by phone, instability by class /
// angle / within-phone) and Figure 4 (prediction-score distributions for
// stable vs unstable photos).
func (s *session) endtoend() {
	angles := []int{0, 1, 2, 3, 4}
	items := s.objects()
	log.Printf("capturing %d objects x %d angles x %d phones...", len(items), len(angles), len(s.rig.Phones))
	records := lab.Classify(s.model, s.rig.CaptureAll(items, angles), 3)
	snap := stability.NewAccumulator(records...).Snapshot()

	fmt.Fprintln(s.out, "\nFigure 3(a) — accuracy by phone")
	var accSum float64
	for _, e := range snap.ByEnv {
		accSum += e.Accuracy
		s.bar(e.Env, e.Accuracy*100, 100)
	}
	s.bar("avg all phones", accSum/float64(len(snap.ByEnv))*100, 100)

	fmt.Fprintln(s.out, "\nFigure 3(b) — instability by class (%)")
	for c := 0; c < int(dataset.NumClasses); c++ {
		s.bar(dataset.Class(c).String(), snap.ByClass[c].Percent(), 25)
	}
	s.bar("total", snap.Top1.Percent(), 25)

	fmt.Fprintln(s.out, "\nFigure 3(c) — instability by experiment angle (%)")
	byAngle := make([]*stability.Accumulator, dataset.NumAngles)
	for a := range byAngle {
		byAngle[a] = stability.NewAccumulator()
	}
	for _, r := range records {
		byAngle[r.Angle].Add(r)
	}
	for a, acc := range byAngle {
		s.bar(fmt.Sprintf("angle %d", a+1), acc.Snapshot().Top1.Percent(), 25)
	}

	fmt.Fprintln(s.out, "\nFigure 3(d) — instability over repeat photos, same phone (%)")
	items = items[:min(s.repeatItems, len(items))]
	for pi, phone := range s.rig.Phones {
		_, recs := lab.RepeatShots(s.model, s.rig, pi, items, 2, s.repeats)
		s.bar(phone.Name, stability.NewAccumulator(recs...).Snapshot().Top1.Percent(), 25)
	}

	split := stability.SplitScores(records)
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i) * 0.1
	}
	density := func(scores []float64) []float64 {
		return metrics.NewHistogram(scores, 0, 1, 10).Density()
	}
	fmt.Fprintln(s.out)
	lab.Series(s.out, "Figure 4(a) — prediction score density, stable images", xs, map[string][]float64{
		"correct":   density(split.StableCorrect),
		"incorrect": density(split.StableIncorrect),
	}, 30)
	lab.Series(s.out, "Figure 4(b) — prediction score density, unstable photos", xs, map[string][]float64{
		"correct":   density(split.UnstableCorrect),
		"incorrect": density(split.UnstableIncorrect),
	}, 30)

	fmt.Fprintf(s.out, "\nSummary: total end-to-end instability %s (paper: 14-17%%)\n", snap.Top1)
	fmt.Fprintf(s.out, "Mean score (unstable correct)   = %.3f\n", metrics.Mean(split.UnstableCorrect))
	fmt.Fprintf(s.out, "Mean score (unstable incorrect) = %.3f\n", metrics.Mean(split.UnstableIncorrect))
	fmt.Fprintf(s.out, "Mean score (stable correct)     = %.3f\n", metrics.Mean(split.StableCorrect))
	fmt.Fprintf(s.out, "Mean score (stable incorrect)   = %.3f\n", metrics.Mean(split.StableIncorrect))
}

// os regenerates the §7 processor/OS experiment (Table 5's SoCs): per-device
// accuracy on byte-identical files, the decoded-image MD5 matches that
// attribute the divergence to JPEG decoding, and the PNG control where
// instability vanishes.
func (s *session) os() {
	n := s.items
	if n == 0 {
		n = 150
	}
	for _, format := range []struct {
		name  string
		codec codec.Codec
	}{{"JPEG", codec.NewJPEG(90)}, {"PNG", codec.NewPNG()}} {
		name := format.name
		log.Printf("building fixed %s set (%d files)...", name, n)
		rows, records := lab.OSDecode(s.model, dataset.FixedSet(n, s.seed+200, format.codec))

		t := &lab.Table{
			Title:   fmt.Sprintf("\n§7 — %s inputs across SoCs (paper: 0.64%% instability on JPEG, 0%% on PNG)", name),
			Headers: []string{"phone", "soc", "accuracy", "decode-hash matches ref"},
		}
		for _, r := range rows {
			t.AddRow(r.Phone.Name, r.Phone.SoC, fmt.Sprintf("%.1f%%", r.Accuracy*100), fmt.Sprintf("%d/%d", r.HashMatches, n))
		}
		t.Render(s.out)
		fmt.Fprintf(s.out, "  %s instability across devices: %s\n", name, stability.NewAccumulator(records...).Snapshot().Top1)
	}
}
