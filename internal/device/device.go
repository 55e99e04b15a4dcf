// Package device composes the sensor, ISP and codec substrates into phone
// profiles — the "edge devices" of the paper. A Profile captures a scene the
// way a phone would: optics and sensor noise, the vendor ISP, lossy
// compression into the phone's native format, and OS-dependent decoding back
// to pixels. Profiles also support raw (DNG-style) capture for the paper's
// §9.2 experiment.
package device

import (
	"crypto/md5"
	"math/rand"

	"repro/internal/codec"
	"repro/internal/imaging"
	"repro/internal/isp"
	"repro/internal/nn"
	"repro/internal/sensor"
)

// Profile describes one phone model.
type Profile struct {
	Name string
	// Sensor and optics.
	Sensor *sensor.Sensor
	// Vendor ISP pipeline applied to every normal capture.
	ISP *isp.Pipeline
	// Native storage codec (what the camera app saves).
	Codec codec.Codec
	// How this device's OS decodes compressed images for inference.
	Decode codec.DecodeOptions
	// RawCapable phones can skip ISP+codec and emit the Bayer frame.
	RawCapable bool
	// RawNR is the strength (0..1) of the noise reduction the vendor bakes
	// into "raw" files before handing them to apps. The paper observes
	// (§9.2) that raw access does not eliminate instability because "it is
	// not always clear at what stage of the pipeline we get the raw image
	// from" — this is that stage.
	RawNR float32
	// RawGain is the exposure compensation the vendor bakes into raw
	// files (1 = none). Like RawNR it survives any consistent downstream
	// converter and keeps cross-device raw files from being identical.
	RawGain float32
	// Runtime names the inference stack this device ships with (one of
	// nn.Runtimes(): "float32", "int8", "pruned"). The empty string means
	// the float32 reference. Real fleets pin the model variant per device
	// class — flagship phones run the float model, budget hardware the
	// quantized or pruned one — which makes the runtime a divergence axis
	// exactly like the sensor and ISP.
	Runtime string
}

// RuntimeName returns the profile's runtime, defaulting the empty string to
// the float32 reference.
func (p *Profile) RuntimeName() string { return nn.RuntimeOrDefault(p.Runtime) }

// Photo is a stored capture: the compressed representation plus the decoded
// pixels as this device's OS would hand them to a model.
type Photo struct {
	Device  string
	Encoded *codec.Encoded
	Image   *imaging.Image
}

// Capture photographs a scene end-to-end: sensor → ISP → codec → decode.
func (p *Profile) Capture(scene *imaging.Image, rng *rand.Rand) *Photo {
	raw := p.Sensor.Capture(scene, rng)
	processed := p.ISP.Process(raw)
	enc := p.Codec.Encode(processed.Clamp())
	return &Photo{Device: p.Name, Encoded: enc, Image: enc.Decode(p.Decode)}
}

// DevelopRaw applies the device-specific processing that vendors bake into
// raw files before exposing them: a mosaic-domain noise reduction of
// strength RawNR. The filter averages each sample with its same-color
// neighbours (distance 2 in the Bayer lattice) so the mosaic structure is
// preserved.
func (p *Profile) DevelopRaw(raw *sensor.RawImage) *sensor.RawImage {
	if p.RawNR <= 0 && (p.RawGain == 0 || p.RawGain == 1) {
		return raw
	}
	gain := p.RawGain
	if gain == 0 {
		gain = 1
	}
	out := &sensor.RawImage{W: raw.W, H: raw.H, Pattern: raw.Pattern, Plane: make([]float32, len(raw.Plane)), Bits: raw.Bits}
	k := p.RawNR
	for y := 0; y < raw.H; y++ {
		for x := 0; x < raw.W; x++ {
			var sum float32
			var cnt float32
			for _, d := range [4][2]int{{-2, 0}, {2, 0}, {0, -2}, {0, 2}} {
				xx, yy := x+d[0], y+d[1]
				if xx < 0 || xx >= raw.W || yy < 0 || yy >= raw.H {
					continue
				}
				sum += raw.Plane[yy*raw.W+xx]
				cnt++
			}
			v := raw.Plane[y*raw.W+x]
			if cnt > 0 && k > 0 {
				v = float32((1-k)*v) + float32(k*(sum/cnt))
			}
			v *= gain
			if v > 1 {
				v = 1
			}
			out.Plane[y*raw.W+x] = v
		}
	}
	return out
}

// DecodeHash returns the MD5 of the decoded pixel buffer, reproducing the
// paper's §7 methodology of hashing loaded images to attribute divergence to
// the decoder.
func (p *Profile) DecodeHash(enc *codec.Encoded) [16]byte {
	im := enc.Decode(p.Decode)
	return md5.Sum(im.ToBytes())
}

// LabPhones returns the five-phone fleet of the end-to-end experiment
// (Table 1 of the paper): Samsung Galaxy S10, iPhone XR, HTC Desire 10,
// LG K10 and Motorola Moto G5 stand-ins. Samsung and iPhone are raw-capable,
// matching §9.2.
func LabPhones() []*Profile {
	samsungSensor := sensor.Params{
		BlurSigma: 0.55, Vignette: 0.08, ChromaticShift: 0.15,
		GainR: 1.02, GainG: 1.0, GainB: 0.97,
		Exposure: 1.03, ShotNoise: 0.018, ReadNoise: 0.007, BitDepth: 12,
	}
	iphoneSensor := sensor.Params{
		BlurSigma: 0.6, Vignette: 0.06, ChromaticShift: 0.1,
		GainR: 0.98, GainG: 1.0, GainB: 1.02,
		Exposure: 0.98, ShotNoise: 0.016, ReadNoise: 0.006, BitDepth: 12,
	}
	htcSensor := sensor.Params{
		BlurSigma: 0.8, Vignette: 0.14, ChromaticShift: 0.3,
		GainR: 1.04, GainG: 1.0, GainB: 0.95,
		Exposure: 1.05, ShotNoise: 0.026, ReadNoise: 0.012, BitDepth: 10,
	}
	lgSensor := sensor.Params{
		BlurSigma: 0.75, Vignette: 0.12, ChromaticShift: 0.25,
		GainR: 0.96, GainG: 1.0, GainB: 1.03,
		Exposure: 0.96, ShotNoise: 0.024, ReadNoise: 0.011, BitDepth: 10,
	}
	motoSensor := sensor.Params{
		BlurSigma: 0.7, Vignette: 0.10, ChromaticShift: 0.2,
		GainR: 1.0, GainG: 1.0, GainB: 1.0,
		Exposure: 1.0, ShotNoise: 0.022, ReadNoise: 0.010, BitDepth: 10,
	}
	return []*Profile{
		{
			Name:       "samsung-galaxy-s10",
			Sensor:     sensor.New(samsungSensor),
			ISP:        isp.VendorSamsung(),
			Codec:      codec.NewJPEG(92),
			Decode:     codec.DecodeOptions{ChromaUpsample: codec.UpsampleBilinear},
			RawCapable: true,
			RawNR:      0.15,
			RawGain:    0.92,
		},
		{
			Name:       "iphone-xr",
			Sensor:     sensor.New(iphoneSensor),
			ISP:        isp.VendorApple(),
			Codec:      codec.NewHEIF(90),
			Decode:     codec.DecodeOptions{ChromaUpsample: codec.UpsampleBilinear},
			RawCapable: true,
			RawNR:      0.7,
			RawGain:    1.18,
		},
		{
			Name:   "htc-desire-10",
			Sensor: sensor.New(htcSensor),
			ISP:    isp.VendorHTC(),
			Codec:  codec.NewJPEG(88),
			Decode: codec.DecodeOptions{ChromaUpsample: codec.UpsampleNearest},
		},
		{
			Name:   "lg-k10",
			Sensor: sensor.New(lgSensor),
			ISP:    isp.VendorLG(),
			Codec:  codec.NewJPEG(85),
			Decode: codec.DecodeOptions{ChromaUpsample: codec.UpsampleBilinear},
		},
		{
			Name:   "motorola-moto-g5",
			Sensor: sensor.New(motoSensor),
			ISP:    isp.VendorMotorola(),
			Codec:  codec.NewJPEG(90),
			Decode: codec.DecodeOptions{ChromaUpsample: codec.UpsampleNearest},
		},
	}
}
