package main

import (
	"cmp"
	"fmt"
	"log"
	"slices"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/isp"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/stability"
	"repro/internal/train"
)

// stageAngles are the three central camera angles the single-stage
// experiments (compress, isp, raw) photograph.
var stageAngles = []int{1, 2, 3}

func (s *session) bar(label string, value, max float64) {
	fmt.Fprintln(s.out, lab.Bar(label, value, max, 40))
}

// endtoend regenerates Figure 3 (accuracy by phone, instability by class /
// angle / within-phone) and Figure 4 (prediction-score distributions for
// stable vs unstable photos).
func (s *session) endtoend() {
	records := s.endToEndRecords()
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
	items := s.objects()
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

// compress regenerates Table 2 (JPEG qualities 100/85/50), Table 3 (JPEG vs
// PNG vs WebP vs HEIF) and, with -gallery, the Figure 5 list of photos whose
// label flips between formats.
func (s *session) compress() {
	log.Printf("capturing ISP-processed photos (samsung + iphone)...")
	captures := s.rig.CodecCaptures(s.objects(), stageAngles)

	table := func(title string, codecs ...codec.Codec) []*stability.Record {
		rows, records := lab.CodecMatrix(s.model, captures, codecs)
		t := &lab.Table{Title: title, Headers: []string{"metric"}}
		sizes, accs := []string{"avg. size [KB]"}, []string{"accuracy"}
		for _, r := range rows {
			t.Headers = append(t.Headers, r.Codec)
			sizes = append(sizes, fmt.Sprintf("%.2f", r.AvgKB))
			accs = append(accs, fmt.Sprintf("%.1f%%", r.Accuracy*100))
		}
		t.AddRow(sizes...)
		t.AddRow(accs...)
		inst := stability.NewAccumulator(records...).Snapshot().Top1
		t.AddRow("instability", fmt.Sprintf("%.2f%% (%d/%d)", inst.Percent(), inst.Unstable, inst.Groups))
		t.Render(s.out)
		return records
	}
	table("Table 2 — JPEG compression qualities (paper: instability 7.6%)",
		codec.NewJPEG(100), codec.NewJPEG(85), codec.NewJPEG(50))
	formats := table("\nTable 3 — compression formats (paper: instability 9.66%)",
		codec.NewJPEG(75), codec.NewPNG(), codec.NewWebP(75), codec.NewHEIF(75))
	if !s.gallery {
		return
	}

	fmt.Fprintln(s.out, "\nFigure 5 — images with format-divergent labels")
	acc := stability.NewAccumulator(formats...)
	byGroup := func(a, b *stability.Record) int {
		return cmp.Or(cmp.Compare(a.ItemID, b.ItemID), cmp.Compare(a.Angle, b.Angle))
	}
	rest := slices.Clone(formats)
	slices.SortStableFunc(rest, byGroup)
	shown := 0
	for len(rest) > 0 && shown < 12 {
		n := 1
		for n < len(rest) && byGroup(rest[0], rest[n]) == 0 {
			n++
		}
		group := rest[:n]
		rest = rest[n:]
		k := stability.GroupKey{ItemID: group[0].ItemID, Angle: group[0].Angle}
		if !acc.Unstable(k) {
			continue
		}
		fmt.Fprintf(s.out, "  object %d angle %d (true: %s):\n", k.ItemID/lab.SourceStride, k.Angle, dataset.Class(group[0].TrueClass))
		for _, r := range group {
			mark := "✗"
			if r.Correct() {
				mark = "✓"
			}
			fmt.Fprintf(s.out, "    %-10s → %-14s %s (score %.2f)\n", r.Env, dataset.Class(r.Pred), mark, r.Score)
		}
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(s.out, "  (no unstable groups found at this sample size)")
	}
}

// isp regenerates Table 4: raw frames from the two raw-capable phones are
// developed by an ImageMagick-like and an Adobe-like software ISP, and
// instability is measured between the two converters.
func (s *session) isp() {
	log.Printf("capturing raw (DNG-like) photos...")
	pipelines := []*isp.Pipeline{isp.SoftwareImageMagick(), isp.SoftwareAdobe()}
	accs, records := lab.ISPConversion(s.model, s.rig.CaptureRaw(s.objects(), stageAngles), pipelines)

	t := &lab.Table{Title: "Table 4 — software ISP conversion (paper: ImageMagick 54.75%, Adobe 49.96%, instability 14.11%)", Headers: []string{"metric", "result"}}
	for i, p := range pipelines {
		t.AddRow(p.Name+" accuracy", fmt.Sprintf("%.2f%%", accs[i]*100))
	}
	inst := stability.NewAccumulator(records...).Snapshot().Top1
	t.AddRow("instability", fmt.Sprintf("%.2f%% (%d/%d)", inst.Percent(), inst.Unstable, inst.Groups))
	t.Render(s.out)

	fmt.Fprintln(s.out, "\nPipelines under test:")
	for _, p := range pipelines {
		fmt.Fprintf(s.out, "  %s\n", p.Describe())
	}
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

// raw regenerates Figure 8: cross-phone instability of the native JPEG path
// against raw capture plus one consistent converter, overall (8a), per
// class (8b) and alongside accuracy (8c).
func (s *session) raw() {
	log.Printf("capturing dual JPEG + raw photos on samsung and iphone...")
	jpeg, png := lab.RawVsJPEG(s.model, s.rig, s.objects(), stageAngles)

	jpegSnap, pngSnap := stability.NewAccumulator(jpeg...).Snapshot(), stability.NewAccumulator(png...).Snapshot()
	jpegInst, pngInst := jpegSnap.Top1, pngSnap.Top1
	fmt.Fprintln(s.out, "\nFigure 8(a) — cross-phone instability by file type (%)")
	s.bar("JPEG", jpegInst.Percent(), 20)
	s.bar("Converted PNG", pngInst.Percent(), 20)

	fmt.Fprintln(s.out, "\nFigure 8(b) — instability by class (%)")
	for c := 0; c < int(dataset.NumClasses); c++ {
		s.bar(dataset.Class(c).String()+" (JPEG)", jpegSnap.ByClass[c].Percent(), 25)
		s.bar(dataset.Class(c).String()+" (PNG)", pngSnap.ByClass[c].Percent(), 25)
	}

	fmt.Fprintln(s.out, "\nFigure 8(c) — accuracy by phone and file type (%)")
	for i, e := range jpegSnap.ByEnv { // the slices are aligned, so the phones are too
		s.bar(e.Env+" (JPEG)", e.Accuracy*100, 100)
		s.bar(e.Env+" (PNG)", pngSnap.ByEnv[i].Accuracy*100, 100)
	}

	improvement := 0.0
	if jpegInst.Rate() > 0 {
		improvement = (jpegInst.Rate() - pngInst.Rate()) / jpegInst.Rate() * 100
	}
	fmt.Fprintf(s.out, "\nSummary: raw+consistent conversion changes instability %.2f%% → %.2f%% (%.1f%% relative; paper: ~11.5%%)\n",
		jpegInst.Percent(), pngInst.Percent(), improvement)
}

// topk regenerates Figure 9: the end-to-end experiment re-scored with top-3
// classification instead of top-1, for both accuracy and instability.
func (s *session) topk() {
	snap := stability.NewAccumulator(s.endToEndRecords()...).Snapshot()

	fmt.Fprintln(s.out, "\nFigure 9(a) — accuracy, top-3 vs top-1 (%)")
	for _, env := range []string{"samsung-galaxy-s10", "iphone-xr"} {
		i := slices.IndexFunc(snap.ByEnv, func(e stability.EnvAccuracy) bool { return e.Env == env })
		s.bar(env+" top-3", snap.ByEnv[i].TopKAccuracy*100, 100)
		s.bar(env+" top-1", snap.ByEnv[i].Accuracy*100, 100)
	}

	top1, top3 := snap.Top1, snap.TopK
	fmt.Fprintln(s.out, "\nFigure 9(b) — instability, top-3 vs top-1 (%)")
	s.bar("top-3", top3.Percent(), 20)
	s.bar("top-1", top1.Percent(), 20)

	accImp := (snap.TopKAccuracy - snap.Accuracy) / snap.Accuracy * 100
	instImp := 0.0
	if top1.Rate() > 0 {
		instImp = (top1.Rate() - top3.Rate()) / top1.Rate() * 100
	}
	fmt.Fprintf(s.out, "\nSummary: top-3 improves accuracy by %.1f%% and instability by %.1f%% relative (paper: ~30%% each)\n", accImp, instImp)
}

// stability regenerates Table 6(a), Table 6(b) and, with -pr, the Figure 7
// precision-recall curves: the base model fine-tuned on Samsung photos
// under every noise scheme and both stability losses, cross-phone
// instability measured on held-out objects.
func (s *session) stability() {
	cfg := lab.DefaultStabilityExp(s.seed)
	cfg.TrainItems, cfg.TestItems, cfg.Epochs = s.trainItems, s.testItems, s.epochs

	for _, loss := range []train.StabilityLoss{train.LossEmbedding, train.LossKL} {
		results := lab.GridSearchAlpha(s.model, loss, cfg, s.alphas, log.Printf) // no -grid: each scheme's own α
		title := "Table 6(a) — embedding distance loss (paper: 3.91/4.22/5.12/5.12/7.22%)"
		if loss == train.LossKL {
			title = "\nTable 6(b) — relative entropy loss (paper: 6.32/5.72/4.52/4.82/6.62%)"
		}
		t := &lab.Table{Title: title, Headers: []string{"noise", "hyper parameters", "instability", "samsung acc", "iphone acc"}}
		for _, r := range results {
			t.AddRow(r.Label,
				fmt.Sprintf("α=%g %s", r.Alpha, r.Hyper),
				fmt.Sprintf("%.2f%%", r.Instability.Percent()),
				fmt.Sprintf("%.1f%%", r.SamsungAcc*100),
				fmt.Sprintf("%.1f%%", r.IPhoneAcc*100))
		}
		t.Render(s.out)
		if !s.pr {
			continue
		}

		fmt.Fprintf(s.out, "\nFigure 7 — precision/recall (%s loss)\n", loss)
		for _, r := range results {
			fmt.Fprintf(s.out, "  %s:\n", r.Label)
			for i := 0; i < len(r.PRSamsung); i += 4 {
				sp, ip := r.PRSamsung[i], r.PRIPhone[i]
				fmt.Fprintf(s.out, "    thr %.2f  samsung P=%.3f R=%.3f   iphone P=%.3f R=%.3f\n",
					sp.Threshold, sp.Precision, sp.Recall, ip.Precision, ip.Recall)
			}
		}
	}
}
