// Quickstart: measure the instability of one classifier across two simulated
// phones on a handful of scenes, and reproduce the paper's Figure 1 moment —
// two shots of the same object, seconds apart, with nearly identical pixels
// but different labels.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/lab"
	"repro/internal/stability"
)

func main() {
	log.SetFlags(0)

	// 1. Train the shared base classifier (a micro MobileNetV2 trained on
	//    clean renders; a stand-in for "pre-trained on ImageNet"). A small
	//    configuration keeps the example fast.
	log.Println("training a small base model (~30s on one core)...")
	model, err := lab.LoadOrTrainBaseModel(lab.BaseModelConfig{
		Seed: 7, TrainItems: 150, Epochs: 4, Width: 1,
	}, "", nil)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build the lab rig: a monitor in a dark room plus phone profiles.
	rig := lab.NewRig(42)
	samsung, iphone := rig.Phones[0], rig.Phones[1]

	// 3. Photograph 30 test objects with every phone and classify.
	test := dataset.GenerateHard(30, 1234)
	caps := rig.CaptureAll(test.Items, []int{2})
	records := lab.Classify(model, caps, 3)

	// Keep only the two phones of interest for a clean pairwise report.
	var pair []*stability.Record
	for _, r := range records {
		if r.Env == samsung.Name || r.Env == iphone.Name {
			pair = append(pair, r)
		}
	}

	snap := stability.NewAccumulator(pair...).Snapshot()
	accuracy := map[string]float64{}
	for _, e := range snap.ByEnv {
		accuracy[e.Env] = e.Accuracy
	}
	fmt.Println("\n=== Cross-device instability (samsung vs iphone) ===")
	fmt.Printf("samsung accuracy: %.1f%%\n", accuracy[samsung.Name]*100)
	fmt.Printf("iphone accuracy:  %.1f%%\n", accuracy[iphone.Name]*100)
	fmt.Printf("instability:      %s\n", snap.Top1)

	// 4. The Figure 1 experiment: two shots with the same phone, one
	//    second apart. The images are nearly identical; the predictions
	//    sometimes are not.
	fmt.Println("\n=== Figure 1: repeat shots on one phone ===")
	flips := 0
	for _, it := range test.Items {
		shots := rig.CaptureRepeats(samsung, 0, it, 2, 2)
		recs := lab.Classify(model, shots, 1)
		if recs[0].Pred != recs[1].Pred {
			_, fraction := imaging.DiffMask(shots[0].Image, shots[1].Image, 0.05)
			fmt.Printf("object %d (%s): shot1 → %s, shot2 → %s; %.1f%% of pixels differ by >5%%\n",
				it.ID, it.Class,
				dataset.Class(recs[0].Pred), dataset.Class(recs[1].Pred),
				fraction*100)
			flips++
		}
	}
	if flips == 0 {
		fmt.Println("(no repeat-shot flips at this sample size — rerun with more objects)")
	}

	// 5. Show how little the underlying photos differ for one object.
	it := test.Items[0]
	shots := rig.CaptureRepeats(samsung, 0, it, 2, 2)
	fmt.Printf("\nFor object %d, two consecutive shots have PSNR %.1f dB — visually identical.\n",
		it.ID, imaging.PSNR(shots[0].Image, shots[1].Image))
}
