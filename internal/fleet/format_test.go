package fleet

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/fmath"
	"repro/internal/imaging"
	"repro/internal/isp"
)

// TestFormatGrammar pins the canonical spelling of every accepted format
// and the refusal of what is not one: format strings come from outside.
func TestFormatGrammar(t *testing.T) {
	for in, want := range map[string]string{
		"": "", "native": "", "NATIVE": "",
		"png": "png", "PNG": "png",
		"jpeg:85": "jpeg:85", "JPEG:85": "jpeg:85", "jpeg:1": "jpeg:1", "jpeg:100": "jpeg:100",
		"webp:75": "webp:75", "heif:75": "heif:75", "HeIf:9": "heif:9",
		"raw:dng": "raw:dng", "raw:DNG": "raw:dng", "RAW:Adobe": "raw:adobe", "raw:imagemagick": "raw:imagemagick",
	} {
		if got, err := CanonicalFormat(in); err != nil || got != want {
			t.Errorf("CanonicalFormat(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{
		"jpeg:085", "jpeg:0", "jpeg:101", "jpeg:+85", "jpeg:-5", "jpeg:", "jpeg", "jpeg:85:1", "jpeg:8.5",
		"raw:", "raw", "raw:dcraw", "raw:dng ", "png:1", "png:", "gif", "jpeg:85 ", " jpeg:85", "native ", "jpeg: 85",
		"jpeg:99999999999999999999",
	} {
		if got, err := CanonicalFormat(in); err == nil {
			t.Errorf("CanonicalFormat(%q) = %q, want an error", in, got)
		}
	}
}

// TestFormatSwapsStagesAfterTheSensor: under every format a cell is the
// stages that format names, built here by hand from the unfused converters,
// applied to the one sensor frame the cell seed draws — so arms that differ
// only in format pair cell for cell on identical sensor noise.
func TestFormatSwapsStagesAfterTheSensor(t *testing.T) {
	const seed = 11
	gen := NewGenerator(seed, 2, 0)
	items := Items(seed, 2)
	ref := codec.DecodeOptions{}
	for _, tc := range []struct {
		format string
		codec  codec.Codec   // nil: the device's own codec and decoder
		isp    *isp.Pipeline // nil: the device's own ISP
	}{
		{format: "native"},
		{"jpeg:50", codec.NewJPEG(50), nil},
		{"png", codec.NewPNG(), nil},
		{"webp:70", codec.NewWebP(70), nil},
		{"heif:60", codec.NewHEIF(60), nil},
		{"raw:dng", codec.NewPNG(), isp.SoftwareDNG()},
		{"raw:imagemagick", codec.NewPNG(), isp.SoftwareImageMagick()},
		{"raw:adobe", codec.NewPNG(), isp.SoftwareAdobe()},
	} {
		swap, _, err := parseFormat(tc.format)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(seed, 2, 0)
		e.swap = swap
		for id := 0; id < 5; id++ { // one device of every cohort
			d := gen.Device(id)
			for _, it := range items {
				for _, a := range []int{0, 3} {
					got, size := e.Capture(d, it, a)
					rng := rand.New(rand.NewSource(fmath.Mix(seed, 2, int64(id), int64(it.ID), int64(a))))
					raw := d.Sensor.Capture(e.Displayed(it, a), rng)
					var enc *codec.Encoded
					var want *imaging.Image
					switch {
					case tc.codec == nil:
						enc = d.Profile.Codec.Encode(d.ISP.Process(raw).Clamp())
						want = enc.Decode(d.Profile.Decode)
					case tc.isp == nil:
						enc = tc.codec.Encode(d.ISP.Process(raw).Clamp())
						want = enc.Decode(ref)
					default:
						enc = tc.codec.Encode(tc.isp.Process(d.Profile.DevelopRaw(raw)).Clamp())
						want = enc.Decode(ref)
					}
					if size != enc.Size || got.W != want.W || !slices.Equal(got.Pix, want.Pix) {
						t.Fatalf("%s: device %d item %d angle %d: capture is not the named stages on the cell's sensor frame", tc.format, id, it.ID, a)
					}
				}
			}
		}
	}
}

// TestFormatRunStatsCanonical: a run states its format canonically, so
// "native" and an omitted format give the same bytes, and differently
// spelled values of one format give the same bytes.
func TestFormatRunStatsCanonical(t *testing.T) {
	run := func(format string) []byte {
		cfg := Config{Devices: 3, Items: 1, Angles: []int{1}, Seed: 4, Workers: 2, Format: format}
		return NewRunner(cfg, testFactory()).Run().JSON()
	}
	if a, b := run(""), run("Native"); !bytes.Equal(a, b) {
		t.Fatalf("native stats differ from the omitted format's:\n%s\n%s", a, b)
	}
	a, b := run("jpeg:40"), run("JPEG:40")
	if !bytes.Equal(a, b) || !bytes.Contains(a, []byte(`"format":"jpeg:40"`)) {
		t.Fatalf("jpeg:40 stats:\n%s\nJPEG:40 stats:\n%s", a, b)
	}
}
