package device

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/imaging"
	"repro/internal/sensor"
)

func testScene() *imaging.Image {
	im := imaging.New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			im.Set(x, y, 0.2+0.6*float32(x)/32, 0.5, 0.8-0.6*float32(y)/32)
		}
	}
	return im
}

func TestLabPhonesInventory(t *testing.T) {
	phones := LabPhones()
	if len(phones) != 5 {
		t.Fatalf("want 5 lab phones, got %d", len(phones))
	}
	names := map[string]bool{}
	rawCapable := 0
	for _, p := range phones {
		if names[p.Name] {
			t.Fatalf("duplicate phone name %s", p.Name)
		}
		names[p.Name] = true
		if p.Sensor == nil || p.ISP == nil || p.Codec == nil {
			t.Fatalf("phone %s incompletely configured", p.Name)
		}
		if p.RawCapable {
			rawCapable++
		}
	}
	// Matching the paper: exactly two of the five phones shoot raw.
	if rawCapable != 2 {
		t.Fatalf("want 2 raw-capable phones, got %d", rawCapable)
	}
}

func TestFirebasePhonesDecoderSplit(t *testing.T) {
	phones := FirebasePhones()
	if len(phones) != 5 {
		t.Fatalf("want 5 firebase phones, got %d", len(phones))
	}
	nearest := map[string]bool{}
	for _, p := range phones {
		if p.Decode.ChromaUpsample == codec.UpsampleNearest {
			nearest[p.Name] = true
		}
	}
	// The paper's finding: exactly Huawei and Xiaomi share the divergent
	// decoder.
	if len(nearest) != 2 || !nearest["huawei-mate-rs"] || !nearest["xiaomi-mi-8-pro"] {
		t.Fatalf("nearest-decoder set = %v", nearest)
	}
}

func TestCaptureDeterministic(t *testing.T) {
	phone := LabPhones()[0]
	scene := testScene()
	a := phone.Capture(scene, rand.New(rand.NewSource(9)))
	b := phone.Capture(scene, rand.New(rand.NewSource(9)))
	if imaging.MSE(a.Image, b.Image) != 0 {
		t.Fatal("capture must be deterministic in the rng")
	}
	if a.Encoded.Size != b.Encoded.Size {
		t.Fatal("encoded size must be deterministic")
	}
}

func TestCaptureProducesValidPhoto(t *testing.T) {
	for _, phone := range LabPhones() {
		p := phone.Capture(testScene(), rand.New(rand.NewSource(1)))
		if p.Device != phone.Name {
			t.Fatalf("photo device %q", p.Device)
		}
		if p.Image.W != 32 || p.Image.H != 32 {
			t.Fatalf("%s: photo size %dx%d", phone.Name, p.Image.W, p.Image.H)
		}
		if p.Encoded.Size <= 0 {
			t.Fatalf("%s: non-positive size", phone.Name)
		}
		for _, v := range p.Image.Pix {
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				t.Fatalf("%s: pixel %v out of range", phone.Name, v)
			}
		}
	}
}

func TestPhonesCaptureSameSceneDifferently(t *testing.T) {
	// The paper's core premise: same displayed image, different devices,
	// different pixels.
	scene := testScene()
	phones := LabPhones()
	photos := make([]*imaging.Image, len(phones))
	for i, p := range phones {
		photos[i] = p.Capture(scene, rand.New(rand.NewSource(42))).Image
	}
	for i := 0; i < len(photos); i++ {
		for j := i + 1; j < len(photos); j++ {
			if imaging.MSE(photos[i], photos[j]) == 0 {
				t.Fatalf("%s and %s produced identical photos", phones[i].Name, phones[j].Name)
			}
		}
	}
}

func TestCaptureRawRequiresCapability(t *testing.T) {
	var nonRaw, raw *Profile
	for _, p := range LabPhones() {
		if p.RawCapable && raw == nil {
			raw = p
		}
		if !p.RawCapable && nonRaw == nil {
			nonRaw = p
		}
	}
	if _, err := nonRaw.CaptureRaw(testScene(), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("non-raw-capable phone must refuse raw capture")
	}
	frame, err := raw.CaptureRaw(testScene(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if frame.W != 32 || frame.H != 32 {
		t.Fatalf("raw frame %dx%d", frame.W, frame.H)
	}
}

func TestDevelopRawNoOpWithoutParams(t *testing.T) {
	p := &Profile{Name: "x"}
	raw := &sensor.RawImage{W: 2, H: 2, Plane: []float32{0.1, 0.2, 0.3, 0.4}, Bits: 10}
	out := p.DevelopRaw(raw)
	for i := range raw.Plane {
		if out.Plane[i] != raw.Plane[i] {
			t.Fatal("DevelopRaw without params must be identity")
		}
	}
}

func TestDevelopRawGain(t *testing.T) {
	p := &Profile{Name: "x", RawGain: 1.5}
	raw := &sensor.RawImage{W: 2, H: 2, Plane: []float32{0.2, 0.2, 0.2, 0.9}, Bits: 10}
	out := p.DevelopRaw(raw)
	if math.Abs(float64(out.Plane[0])-0.3) > 1e-5 {
		t.Fatalf("gain not applied: %v", out.Plane[0])
	}
	if out.Plane[3] > 1 {
		t.Fatalf("gain must clip at 1: %v", out.Plane[3])
	}
}

func TestDevelopRawNRSmooths(t *testing.T) {
	p := &Profile{Name: "x", RawNR: 0.5}
	// impulse in a flat field
	plane := make([]float32, 36)
	for i := range plane {
		plane[i] = 0.5
	}
	plane[2*6+2] = 1.0
	raw := &sensor.RawImage{W: 6, H: 6, Plane: plane, Bits: 10}
	out := p.DevelopRaw(raw)
	if out.Plane[2*6+2] >= 1.0 {
		t.Fatal("NR must attenuate an impulse")
	}
	// neighbours at distance 2 (same Bayer color) absorb some energy
	if out.Plane[2*6+4] <= 0.5 {
		t.Fatal("NR must spread to same-color neighbours")
	}
}

func TestDecodeHashMatchesForSameOptions(t *testing.T) {
	phones := FirebasePhones()
	enc := codec.NewJPEG(90).Encode(testScene())
	prof := func(d codec.DecodeOptions) *Profile { return &Profile{Name: "p", Decode: d} }
	var bilinear, nearest [16]byte
	for _, p := range phones {
		h := prof(p.Decode).DecodeHash(enc)
		if p.Decode.ChromaUpsample == codec.UpsampleNearest {
			if nearest == ([16]byte{}) {
				nearest = h
			} else if h != nearest {
				t.Fatal("same decoder options must hash identically")
			}
		} else {
			if bilinear == ([16]byte{}) {
				bilinear = h
			} else if h != bilinear {
				t.Fatal("same decoder options must hash identically")
			}
		}
	}
	if bilinear == nearest {
		t.Fatal("different decoders must produce different hashes on JPEG")
	}
	// PNG: decoder-independent → equal hashes (the §7 control).
	encPNG := codec.NewPNG().Encode(testScene())
	if prof(codec.DecodeOptions{ChromaUpsample: codec.UpsampleBilinear}).DecodeHash(encPNG) !=
		prof(codec.DecodeOptions{ChromaUpsample: codec.UpsampleNearest}).DecodeHash(encPNG) {
		t.Fatal("PNG decode hashes must match across decoders")
	}
}
