package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/fmath"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/train"
)

// stableModel is a run's model resolved into the §9.1 stability fine-tune
// it names. A nil *stableModel is the base weights.
type stableModel struct {
	name   string // canonical, the cache key's second half
	scheme string // "" for stable:none, plain fine-tuning
	loss   train.StabilityLoss
	alpha  float64
}

// table6Alpha is each noise scheme's stability-loss weight α per loss
// (embedding distance, relative entropy): the paper found its α by grid
// search over its Keras loss scale, and these come from the same search run
// against this repo's loss scale. An @α arm overrides it.
var table6Alpha = map[string][2]float64{
	"two-images": {0.1, 0.4},
	"subsample":  {0.1, 0.1},
	"distortion": {0.1, 1.2},
	"gaussian":   {0.4, 1.2},
}

// CanonicalModel checks a model value and returns its canonical spelling,
// or the value itself with the error; "" and "base" (in any case) are the
// base weights, canonically "". The grammar is
//
//	base | stable:none | stable:<two-images|subsample|distortion|gaussian>[:kl][@α]
//
// with names case-insensitive: stable:<scheme> fine-tunes with the
// embedding-distance loss, :kl with the relative-entropy loss, at Table 6's
// α for that scheme and loss unless @α (a finite number ≥ 0) names another;
// stable:none is plain fine-tuning, with neither. The canonical spelling is
// lower case with the α written out. Nothing is trimmed.
func CanonicalModel(s string) (string, error) {
	m, err := parseModel(s)
	if err != nil {
		return s, err
	}
	if m == nil {
		return "", nil
	}
	return m.name, nil
}

// parseModel resolves a model value into its fine-tune (nil for base).
func parseModel(s string) (*stableModel, error) {
	v := strings.ToLower(s)
	if v == "" || v == "base" {
		return nil, nil
	}
	bad := fmt.Errorf("bad model %q (want base, stable:none or stable:<two-images|subsample|distortion|gaussian>[:kl][@α])", s)
	rest, ok := strings.CutPrefix(v, "stable:")
	if !ok {
		return nil, bad
	}
	if rest == "none" {
		return &stableModel{name: v}, nil
	}
	rest, alphaText, hasAlpha := strings.Cut(rest, "@")
	scheme, lossName, kl := strings.Cut(rest, ":")
	alphas, ok := table6Alpha[scheme]
	if !ok || kl && lossName != "kl" {
		return nil, bad
	}
	m := &stableModel{scheme: scheme, loss: train.LossEmbedding, alpha: alphas[0]}
	if kl {
		m.loss, m.alpha = train.LossKL, alphas[1]
	}
	if hasAlpha {
		a, err := strconv.ParseFloat(alphaText, 64)
		if err != nil || math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
			// A NaN α collapses the fine-tune to one class, whose all-wrong
			// groups are never unstable.
			return nil, fmt.Errorf("bad model %q: α must be a finite number ≥ 0", s)
		}
		if a == 0 {
			a = 0 // -0 is 0
		}
		m.alpha = a
	}
	m.name = "stable:" + rest + "@" + strconv.FormatFloat(m.alpha, 'g', -1, 64)
	return m, nil
}

// The fine-tuning corpus is fixed by the model name alone: §9.1's
// paper-scale set of 100 objects × angles 1–3, photographed by the samsung
// and iphone members (devices 0 and 1) of a fleet on its own seed stream
// (7), at the model's input resolution.
const corpusItems = 100

var (
	corpusSeed   = fmath.Mix(0, 7)
	corpusAngles = []int{1, 2, 3}
)

// finetuneConfig is the fine-tune every stable model runs.
var finetuneConfig = train.Config{Epochs: 2, BatchSize: 16, LR: 0.012, Momentum: 0.9, ClipNorm: 5, Seed: corpusSeed}

// finetuned caches fine-tuned models, weights only, by (ModelSHA of the
// base factory, canonical name): arms of one experiment, or runs and shards
// arriving at once, fine-tune each model once.
var finetuned = NewLRU[[2]string, *nn.Model](16)

// factory returns the backend factory of the fine-tuned model: every
// replica is a clone of the fine-tuned weights, compiled into the requested
// runtime.
func (m *stableModel) factory(base BackendFactory) BackendFactory {
	return replicator(finetuned.GetOrCompute([2]string{ModelSHA(base), m.name}, func() *nn.Model {
		start := float32Replica(base)
		m.finetune(start)
		return start.Clone()
	}))
}

// ModelSHA fingerprints the weights a factory compiles: the hex sha256 of
// its float32 replica's serialized snapshot. A float32 replica is a clone
// that nothing compiles, so this costs one copy of the weights and the
// hash. Two instances compute the same cells for a spec only if their
// factories' ModelSHAs agree.
func ModelSHA(factory BackendFactory) string {
	sum := sha256.New()
	float32Replica(factory).TakeSnapshot().WriteTo(sum)
	return hex.EncodeToString(sum.Sum(nil))
}

// float32Replica is the factory's float32 replica, which must be an
// *nn.Model (BackendReplicator's is).
func float32Replica(factory BackendFactory) *nn.Model {
	r, ok := factory(nn.RuntimeFloat32).(*nn.Model)
	if !ok {
		panic("fleet: the factory's float32 replica is not an *nn.Model")
	}
	return r
}

// finetune fine-tunes the model in place on the corpus: the samsung photos
// are the training images, the iphone photos of the same cells the
// two-images and subsample companions.
func (m *stableModel) finetune(model *nn.Model) {
	gen := NewGenerator(corpusSeed, 2, 0)
	engine := NewEngine(corpusSeed, 2, 0)
	samsung, iphone := gen.Device(0), gen.Device(1)
	var clean, companion []*imaging.Image
	var labels []int
	for _, it := range Items(corpusSeed, corpusItems) {
		for _, a := range corpusAngles {
			s, _ := engine.Capture(samsung, it, a)
			i, _ := engine.Capture(iphone, it, a)
			clean, companion, labels = append(clean, s), append(companion, i), append(labels, int(it.Class))
		}
	}
	var scheme train.NoiseScheme
	switch m.scheme {
	case "two-images":
		scheme = train.TwoImages{Companions: companion}
	case "subsample":
		scheme = train.NewSubsample(10, companion, labels) // Table 6's #images=10
	case "distortion":
		scheme = train.DefaultDistortion()
	case "gaussian":
		sigma := 0.2 // σ² = 0.04
		if m.loss == train.LossKL {
			sigma = 0.158 // σ² = 0.025
		}
		scheme = train.GaussianNoise{Sigma: sigma}
	}
	train.FinetuneStability(model, clean, labels, train.StabilityConfig{Config: finetuneConfig, Alpha: m.alpha, Loss: m.loss, Scheme: scheme})
}
