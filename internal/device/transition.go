package device

import (
	"math/rand"

	"repro/internal/codec"
	"repro/internal/nn"
	"repro/internal/sensor"
)

// Profile transitions model the lifecycle events a deployed device goes
// through mid-run: OS updates, runtime rollouts, and thermal throttling.
// Each is a pure function of its arguments — the same event applied to the
// same profile always yields the same profile, so any worker or shard can
// rebuild a device's post-event variant from (base profile, event) alone.
// The input profile is never modified.

// UpgradeOS returns the profile after an OS decoder update: the codec
// library's chroma upsampling path flips to the other implementation — the
// paper's §7 axis (the same app on the same phone decodes differently after
// an OS update) as an event. The transition is involutive: two upgrades
// restore the original decode path.
func UpgradeOS(p *Profile) *Profile {
	out := *p
	if out.Decode.ChromaUpsample == codec.UpsampleBilinear {
		out.Decode.ChromaUpsample = codec.UpsampleNearest
	} else {
		out.Decode.ChromaUpsample = codec.UpsampleBilinear
	}
	return &out
}

// UpgradeRuntime returns the profile after an inference-stack rollout moves
// the device onto the given runtime (one of nn.Runtimes(); empty defaults to
// the int8 build — the fleet-wide quantization rollout).
func UpgradeRuntime(p *Profile, runtime string) *Profile {
	out := *p
	if runtime == "" {
		runtime = nn.RuntimeInt8
	}
	out.Runtime = runtime
	return &out
}

// Throttle returns the profile after thermal throttling degrades the
// device: sensor noise rises and exposure drops, scaled by severity in
// (0, 1] and jittered deterministically from seed (two thermally stressed
// units of the same model do not degrade identically). severity <= 0
// returns an unmodified clone.
func Throttle(p *Profile, severity float64, seed int64) *Profile {
	out := *p
	if severity <= 0 {
		return &out
	}
	if severity > 1 {
		severity = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// jit draws a per-unit factor around 1 with ±frac spread.
	jit := func(frac float64) float64 { return jitter(rng, frac) }
	sp := p.Sensor.Params
	// A fully throttled sensor roughly doubles its noise floor and loses a
	// few percent exposure (longer integration clipped by the thermal
	// governor).
	sp.ShotNoise *= 1 + float64(severity*jit(0.25))
	sp.ReadNoise *= 1 + float64(severity*jit(0.25))
	sp.Exposure *= 1 - float64(0.05*severity*jit(0.30))
	out.Sensor = sensor.New(sp)
	return &out
}
