package fleet

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/lifecycle"
	"repro/internal/train"
)

// Explanation takes one (item, angle) group of a one-shot run apart. The
// group's cell is replayed on every device of the run's range, each device
// classifying its own capture. When the group is unstable, the first
// disagreeing pair — A, the lowest-ID device that classifies the cell
// right, and B, the lowest-ID device that does not — is compared at each
// stage boundary, and B is replayed with one of A's stages at a time. Every
// field is a pure function of the config, the weights and the group.
type Explanation struct {
	Item  int `json:"item"`
	Angle int `json:"angle"`
	Class int `json:"class"`
	// Devices counts the cells replayed, one a device; Correct those
	// classified right.
	Devices int `json:"devices"`
	Correct int `json:"correct"`
	// A and B, and everything below them, are absent for a stable group.
	A *ExplainedCell `json:"a,omitempty"`
	B *ExplainedCell `json:"b,omitempty"`
	// Boundaries compares A's and B's pixels at every boundary both
	// captures have, in pipeline order: "sensor" (the raw mosaic), "isp"
	// (the clamped frame the codec encodes) and "decode" (the frame the
	// model is given).
	Boundaries []BoundaryDiff `json:"boundaries,omitempty"`
	// FirstDivergent names the first boundary whose pixels differ by more
	// than one 8-bit step.
	FirstDivergent string `json:"first_divergent,omitempty"`
	// Swaps replays B with one stage of A's — "sensor", "isp", "codec"
	// (with its quality), "decode" (the chroma path) or "runtime" — and
	// B's own noise draws.
	Swaps []StageSwap `json:"swaps,omitempty"`
}

// ExplainedCell is one device's replay of the group's cell.
type ExplainedCell struct {
	Device  int    `json:"device"`
	Cohort  string `json:"cohort"`
	Runtime string `json:"runtime"`
	// Codec is the device's native codec, which a run's format may replace;
	// Bytes is the size the capture encoded to.
	Codec string `json:"codec"`
	Bytes int    `json:"bytes"`
	Pred  int    `json:"pred"`
	// TopK lists the Config.TopK most probable classes; Margin is the top-1
	// probability less the top-2 one.
	TopK   []ClassProb `json:"topk"`
	Margin float64     `json:"margin"`
}

// ClassProb is one class and its probability.
type ClassProb struct {
	Class int     `json:"class"`
	Prob  float64 `json:"prob"`
}

// BoundaryDiff compares two captures' pixels at one stage boundary.
// PSNRdB is rounded to 0.01 dB and omitted for identical pixels.
type BoundaryDiff struct {
	Boundary   string  `json:"boundary"`
	PSNRdB     float64 `json:"psnr_db,omitempty"`
	MaxAbsDiff float64 `json:"max_abs_diff"`
}

// StageSwap is B replayed with one of A's stages; Fixes reports that the
// swap alone makes B classify the cell right.
type StageSwap struct {
	Stage string `json:"stage"`
	Pred  int    `json:"pred"`
	Fixes bool   `json:"fixes"`
}

// Explain replays the group (item, angle) of the one-shot run cfg
// describes, on the weights factory compiles, and explains its first
// disagreeing pair. item indexes the run's items; angle must be one of its
// angles.
func Explain(cfg Config, factory BackendFactory, item, angle int) (Explanation, error) {
	cfg = cfg.WithDefaults()
	if item < 0 || item >= cfg.Items {
		return Explanation{}, fmt.Errorf("fleet: explain item %d outside [0, %d)", item, cfg.Items)
	}
	if !slices.Contains(cfg.Angles, angle) {
		return Explanation{}, fmt.Errorf("fleet: explain angle %d is not one of the run's %v", angle, cfg.Angles)
	}
	s := newSweep(ContinuousConfig{Fleet: cfg, Windows: 1}, &lifecycle.Schedule{}, false, factory)
	s.prefetch = false // one frame is all it photographs
	s.prepare()
	it := s.items[item]
	ex := Explanation{Item: item, Angle: angle, Class: int(it.Class), Devices: len(s.slots)}

	preds := make([]int, len(s.slots))
	s.pool.RunWorker(len(s.slots), func(worker, i int) {
		preds[i] = s.replayCell(worker, s.gen.Device(cfg.DeviceLo+i), it, angle, false).pred
	})
	a, b := -1, -1
	for i, p := range preds {
		switch {
		case p == ex.Class:
			ex.Correct++
			if a < 0 {
				a = i
			}
		case b < 0:
			b = i
		}
	}
	if a < 0 || b < 0 {
		return ex, nil
	}

	devA, devB := s.gen.Device(cfg.DeviceLo+a), s.gen.Device(cfg.DeviceLo+b)
	ra, rb := s.replayCell(0, devA, it, angle, true), s.replayCell(0, devB, it, angle, true)
	ex.A, ex.B = ra.explained(devA, cfg.TopK), rb.explained(devB, cfg.TopK)
	for _, name := range []string{"sensor", "isp", "decode"} {
		pa, okA := ra.pix[name]
		pb, okB := rb.pix[name]
		if !okA || !okB {
			continue
		}
		d := diffPixels(name, pa, pb)
		ex.Boundaries = append(ex.Boundaries, d)
		if ex.FirstDivergent == "" && d.MaxAbsDiff > 1.0/255 {
			ex.FirstDivergent = name
		}
	}

	for _, stage := range []string{"sensor", "isp", "codec", "decode", "runtime"} {
		hybrid := *devB
		profile := *devB.Profile
		switch stage {
		case "sensor":
			hybrid.Sensor, profile.Sensor = devA.Sensor, devA.Profile.Sensor
		case "isp":
			hybrid.ISP, profile.ISP = devA.ISP, devA.Profile.ISP
		case "codec":
			profile.Codec = devA.Profile.Codec
		case "decode":
			profile.Decode = devA.Profile.Decode
		case "runtime":
			profile.Runtime = devA.Profile.Runtime
		}
		hybrid.Profile = &profile
		p := s.replayCell(0, &hybrid, it, angle, false).pred
		ex.Swaps = append(ex.Swaps, StageSwap{Stage: stage, Pred: p, Fixes: p == ex.Class})
	}
	return ex, nil
}

// cellReplay is one device's capture of one cell and its classification;
// pix holds the pixels at each boundary when they were asked for.
type cellReplay struct {
	runtime string
	bytes   int
	pred    int
	probs   []float64
	pix     map[string][]float32
}

// replayCell photographs one cell on dev as the run does and classifies it
// with dev's runtime; keep copies the boundary pixels out of the capture.
func (s *sweep) replayCell(worker int, dev *Device, it *dataset.Item, angle int, keep bool) cellReplay {
	var r cellReplay
	var obs captureObserver
	if keep {
		r.pix = map[string][]float32{}
		obs = func(boundary string, pix []float32) { r.pix[boundary] = slices.Clone(pix) }
	}
	img, size, _ := s.engine.captureObserved(dev, it, angle, obs)
	if keep {
		r.pix["decode"] = slices.Clone(img.Pix)
	}
	runtime, backend := s.backendFor(dev)
	preds, _, probs := train.EvaluateIn(s.scratchFor(worker), backend, []*imaging.Image{img}, 1)
	imaging.PutImage(img)
	r.runtime, r.bytes, r.pred, r.probs = runtime, size, preds[0], probs[0]
	return r
}

// explained renders a replay of dev's cell with its top k classes.
func (r cellReplay) explained(dev *Device, k int) *ExplainedCell {
	c := &ExplainedCell{
		Device: dev.ID, Cohort: dev.Cohort, Runtime: r.runtime,
		Codec: dev.Profile.Codec.Name(), Bytes: r.bytes, Pred: r.pred,
	}
	top := train.TopKOf([][]float64{r.probs}, max(k, 2))[0]
	for _, class := range top[:k] {
		c.TopK = append(c.TopK, ClassProb{Class: class, Prob: r.probs[class]})
	}
	c.Margin = r.probs[top[0]] - r.probs[top[1]]
	return c
}

// diffPixels compares two planes of one boundary sample by sample.
func diffPixels(name string, a, b []float32) BoundaryDiff {
	d := BoundaryDiff{Boundary: name}
	var sum float64
	for i := range a {
		e := float64(a[i] - b[i])
		sum += float64(e * e) // rounded, so that arm64 cannot fuse it
		d.MaxAbsDiff = max(d.MaxAbsDiff, math.Abs(e))
	}
	if sum > 0 {
		d.PSNRdB = math.Round(100*10*math.Log10(float64(len(a))/sum)) / 100
	}
	return d
}
