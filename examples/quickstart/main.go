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
	"repro/internal/fleet"
	"repro/internal/imaging"
	"repro/internal/lab"
	"repro/internal/nn"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)

	// 1. Train the shared base classifier (a micro MobileNetV2 trained on
	//    clean renders; a stand-in for "pre-trained on ImageNet"). A small
	//    configuration keeps the example fast.
	log.Println("training a small base model (~30s on one core)...")
	mcfg := lab.BaseModelConfig{Seed: 7, TrainItems: 150, Epochs: 4, Width: 1}
	model, err := lab.LoadOrTrainBaseModel(mcfg, "", nil)
	if err != nil {
		log.Fatal(err)
	}
	factory := fleet.BackendReplicator(mcfg.Arch, model)

	// 2. A two-phone fleet in front of one monitor: device 0 is synthesized
	//    from the Samsung Galaxy S10, device 1 from the iPhone XR. Both
	//    photograph the same 30 test objects at full resolution and run the
	//    same float32 model.
	cfg := fleet.Config{Devices: 2, Items: 30, Angles: []int{2}, Seed: 42, Scale: 1, Runtime: nn.RuntimeFloat32}
	st := fleet.NewRunner(cfg, factory).Run()

	fmt.Println("\n=== Cross-device instability (samsung vs iphone) ===")
	for _, c := range st.ByCohort {
		if c.Devices > 0 {
			fmt.Printf("%-20s accuracy: %.1f%%\n", c.Cohort, c.Accuracy*100)
		}
	}
	fmt.Printf("instability: %d/%d unstable (%.2f%%)\n", st.Top1.Unstable, st.Top1.Groups, st.Top1.Percent)

	// 3. The Figure 1 experiment: two shots with the same phone, one
	//    second apart — the same cell captured in two epochs, so only the
	//    sensor noise is drawn afresh. The images are nearly identical; the
	//    predictions sometimes are not.
	fmt.Println("\n=== Figure 1: repeat shots on one phone ===")
	engine := fleet.NewEngine(cfg.Seed, cfg.Scale, 0)
	samsung := fleet.NewGenerator(cfg.Seed, cfg.Scale, 0).Device(0)
	backend := factory(nn.RuntimeFloat32)
	items := fleet.Items(cfg.Seed, cfg.Items)
	shots := func(it *dataset.Item) [2]*imaging.Image {
		a, _ := engine.CaptureEpoch(samsung, it, 2, 0)
		b, _ := engine.CaptureEpoch(samsung, it, 2, 1)
		return [2]*imaging.Image{a, b}
	}
	flips := 0
	for _, it := range items {
		shot := shots(it)
		preds, _, _ := train.Evaluate(backend, shot[:], 2)
		if preds[0] != preds[1] {
			_, fraction := imaging.DiffMask(shot[0], shot[1], 0.05)
			fmt.Printf("object %d (%s): shot1 → %s, shot2 → %s; %.1f%% of pixels differ by >5%%\n",
				it.ID, it.Class,
				dataset.Class(preds[0]), dataset.Class(preds[1]),
				fraction*100)
			flips++
		}
	}
	if flips == 0 {
		fmt.Println("(no repeat-shot flips at this sample size — rerun with more objects)")
	}

	// 4. Show how little the underlying photos differ for one object.
	it := items[0]
	shot := shots(it)
	fmt.Printf("\nFor object %d, two consecutive shots have PSNR %.1f dB — visually identical.\n",
		it.ID, imaging.PSNR(shot[0], shot[1]))
}
