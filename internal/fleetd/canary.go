package fleetd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/fleet"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// cellDigests shares cellDigest among the instances of one process, by their
// model_sha: one process is one build on one processor, so instances that
// hold the same weights compute the same canary cells — as fleet shares a
// fine-tune among the runs on one base by the base's model_sha. Instances in
// other processes compute their own.
var cellDigests = fleet.NewLRU[string, string](8)

// canarySeed is the universe of the canary cells: a fixed seed at the default
// capture scale, so that every instance photographs the same ones.
const (
	canarySeed  = 1
	canaryScale = 2
)

// cellDigest fingerprints what an instance computes from its weights: the
// hex sha256 of a fixed canary of cells — the first device of each cohort,
// photographing item 0 at angle 0, with the runtimes dealt round-robin so
// that every one of them infers at least once — hashing for each cell the
// prediction, the bits of its score, the encoded size and the decoded 8-bit
// pixels. Two instances with the same model_sha can still part here: a
// sensor, ISP, codec or kernel that computes other bits on one of them
// changes a decoded frame, an encoded size or a score. Each runtime is
// compiled from factory for the canary and dropped with it, so that an
// instance that never serves keeps no backend it did not need.
func cellDigest(factory fleet.BackendFactory) string {
	gen := fleet.NewGenerator(canarySeed, canaryScale, 1)
	engine := fleet.NewEngine(canarySeed, canaryScale, 1)
	item := fleet.Items(canarySeed, 1)[0]
	runtimes := nn.Runtimes()
	h := sha256.New()
	var sc nn.Scratch
	var input *tensor.Tensor
	backends := map[string]nn.Backend{}
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for i := range gen.Cohorts() { // device i is the first of cohort i
		img, size := engine.Capture(gen.Device(i), item, 0)
		rt := runtimes[i%len(runtimes)]
		b := backends[rt]
		if b == nil {
			b = factory(rt)
			backends[rt] = b
		}
		if in := b.InputSize(); input == nil || input.Dim(2) != in {
			input = tensor.New(1, 3, in, in)
		}
		pred, score := train.Top1(b.InferIn(&sc, imaging.BatchTensorInto(input, []*imaging.Image{img})))
		put(uint64(pred))
		put(math.Float64bits(score))
		put(uint64(size))
		h.Write(img.ToBytes())
		imaging.PutImage(img)
	}
	return hex.EncodeToString(h.Sum(nil))
}
