package lab

import (
	"crypto/md5"
	"fmt"
	"math/rand"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/imaging"
	"repro/internal/isp"
	"repro/internal/nn"
	"repro/internal/sensor"
	"repro/internal/stability"
)

// This file holds the paper's measurements that isolate one pipeline stage
// (§5 codec, §6 ISP, §7 OS decoder, §9.2 raw capture) and the within-phone
// repeat of §4. cmd/paper renders what they return and the root benchmarks
// assert on it; neither walks a capture → encode/decode → classify loop of
// its own, so the full-scale tables and the reduced-scale metrics cannot
// drift apart.

// SourceStride spaces the group identities of experiments that process the
// same photo several ways: records carry ItemID = Item.ID*SourceStride +
// source phone index, so each (object, angle, source phone) is one group.
const SourceStride = 8

// imageSet is the input of one ClassifyImages call under construction.
type imageSet struct {
	images              []*imaging.Image
	ids, angles, labels []int
}

func (s *imageSet) add(im *imaging.Image, id, angle int, it *dataset.Item) {
	s.images = append(s.images, im)
	s.ids = append(s.ids, id)
	s.angles = append(s.angles, angle)
	s.labels = append(s.labels, int(it.Class))
}

func (s *imageSet) classify(b nn.Backend, env string) []*stability.Record {
	recs, _ := ClassifyImages(b, s.images, s.ids, s.angles, s.labels, env, 3)
	return recs
}

// RepeatShots photographs each item n times with one phone and classifies
// every shot: Figure 1 and Figure 3(d). Captures and records are aligned,
// item-major with n per item; Env is the repeat index, so the instability of
// the records is the within-phone instability.
func RepeatShots(b nn.Backend, rig *Rig, phoneIdx int, items []*dataset.Item, angle, n int) ([]*Capture, []*stability.Record) {
	var caps []*Capture
	for _, it := range items {
		caps = append(caps, rig.CaptureRepeats(rig.Phones[phoneIdx], phoneIdx, it, angle, n)...)
	}
	recs := Classify(b, caps, 3)
	for i, r := range recs {
		r.Env = fmt.Sprintf("repeat-%d", i%n)
	}
	return caps, recs
}

// CodecCaptures returns the ISP-processed, uncompressed photos of the
// raw-capable phones (Samsung and iPhone): the paper's input to the §5
// compression experiments, where one consistent converter does all the
// compressing.
func (r *Rig) CodecCaptures(items []*dataset.Item, angles []int) []*Capture {
	var out []*Capture
	for pi, phone := range r.Phones {
		if phone.RawCapable {
			out = append(out, r.CaptureProcessed(phone, pi, items, angles)...)
		}
	}
	return out
}

// CodecRow is one codec's column of Tables 2–3.
type CodecRow struct {
	Codec    string
	AvgKB    float64 // mean compressed size
	Accuracy float64
}

// CodecMatrix compresses every capture with every codec and classifies the
// reconstructions: Table 2 (JPEG qualities), Table 3 (formats) and the
// Figure 5 records. Environments are the codecs, so the instability of the
// records is the cross-codec instability.
func CodecMatrix(b nn.Backend, captures []*Capture, codecs []codec.Codec) ([]CodecRow, []*stability.Record) {
	rows := make([]CodecRow, len(codecs))
	var all []*stability.Record
	for ci, c := range codecs {
		var s imageSet
		var size float64
		for _, cp := range captures {
			enc := c.Encode(cp.Image)
			size += float64(enc.Size)
			s.add(enc.Decode(codec.DecodeOptions{}), cp.Item.ID*SourceStride+cp.PhoneIdx, cp.Angle, cp.Item)
		}
		recs := s.classify(b, c.Name())
		rows[ci] = CodecRow{Codec: c.Name(), AvgKB: size / float64(len(captures)) / 1024, Accuracy: stability.NewAccumulator(recs...).Snapshot().Accuracy}
		all = append(all, recs...)
	}
	return rows, all
}

// RawShot is one exposure of a raw-capable phone.
type RawShot struct {
	Item  *dataset.Item
	Angle int
	Phone int              // index into Rig.Phones
	Frame *sensor.RawImage // the sensor's Bayer frame
	// DNG is the raw file an app is handed: Frame after the vendor's
	// baked-in development (§9.2: raw access does not bypass the whole
	// pipeline).
	DNG *sensor.RawImage
}

// rawShots exposes every raw-capable phone once per (item, angle) on the
// rig pool, phone-major then item-major; seed is the experiment's per-shot
// formula.
func (r *Rig) rawShots(items []*dataset.Item, angles []int, seed func(item, angle, phone int) int64) []RawShot {
	var phones []int
	for pi, p := range r.Phones {
		if p.RawCapable {
			phones = append(phones, pi)
		}
	}
	cells := len(items) * len(angles)
	out := make([]RawShot, len(phones)*cells)
	r.pool().Run(len(out), func(i int) {
		pi, it, a := phones[i/cells], items[i%cells/len(angles)], angles[i%len(angles)]
		phone := r.Phones[pi]
		rng := rand.New(rand.NewSource(seed(it.ID, a, pi)))
		frame := phone.Sensor.Capture(r.Screen.Display(it.Render(a), rng), rng)
		out[i] = RawShot{Item: it, Angle: a, Phone: pi, Frame: frame, DNG: phone.DevelopRaw(frame)}
	})
	return out
}

// CaptureRaw collects the raw (DNG-like) photos of the §6 experiment.
func (r *Rig) CaptureRaw(items []*dataset.Item, angles []int) []RawShot {
	return r.rawShots(items, angles, r.rawSeed)
}

// ISPConversion develops every raw file with every software ISP and
// classifies the uncompressed results, isolating the ISP as the only
// varying stage: Table 4. It returns each pipeline's accuracy and the
// records, whose environments are the pipelines.
func ISPConversion(b nn.Backend, shots []RawShot, pipelines []*isp.Pipeline) ([]float64, []*stability.Record) {
	accs := make([]float64, len(pipelines))
	var all []*stability.Record
	for pi, p := range pipelines {
		var s imageSet
		for _, sh := range shots {
			s.add(p.Process(sh.DNG).Quantize8(), sh.Item.ID*SourceStride+sh.Phone, sh.Angle, sh.Item)
		}
		recs := s.classify(b, p.Name)
		accs[pi] = stability.NewAccumulator(recs...).Snapshot().Accuracy
		all = append(all, recs...)
	}
	return accs, all
}

// RawVsJPEG is the §9.2 mitigation (Figure 8): one shutter press on each
// raw-capable phone produces both files — the same exposure feeds the
// phone's native JPEG pipeline and, as a raw file, one consistent software
// converter. The two record slices are aligned and their environments are
// the phones.
func RawVsJPEG(b nn.Backend, rig *Rig, items []*dataset.Item, angles []int) (jpeg, png []*stability.Record) {
	converter := isp.SoftwareDNG()
	shots := rig.rawShots(items, angles, rig.dualSeed)
	native := make([]*Capture, len(shots))
	converted := make([]*Capture, len(shots))
	for i, sh := range shots {
		phone := rig.Phones[sh.Phone]
		shot := func(im *imaging.Image) *Capture {
			return &Capture{Item: sh.Item, Angle: sh.Angle, Phone: phone.Name, PhoneIdx: sh.Phone, Image: im}
		}
		native[i] = shot(phone.Codec.Encode(phone.ISP.Process(sh.Frame).Clamp()).Decode(phone.Decode))
		converted[i] = shot(converter.Process(sh.DNG).Quantize8())
	}
	return Classify(b, native, 3), Classify(b, converted, 3)
}

// OSRow is one device's row of the §7 table.
type OSRow struct {
	Phone    *device.SoCPhone
	Accuracy float64
	// HashMatches counts the decoded images whose MD5 equals the first
	// device's: the paper's attribution of the divergence to the decoder.
	HashMatches int
}

// OSDecode loads byte-identical files on the five §7 devices, whose only
// degree of freedom is the OS image decoder, and classifies what each one
// decodes: Table 5.
func OSDecode(b nn.Backend, files []*dataset.FixedFile) ([]OSRow, []*stability.Record) {
	phones := device.FirebasePhones()
	rows := make([]OSRow, len(phones))
	ref := make([][md5.Size]byte, len(files))
	var all []*stability.Record
	for di, ph := range phones {
		var s imageSet
		match := 0
		for i, f := range files {
			im := f.Encoded.Decode(ph.Decode)
			sum := md5.Sum(im.ToBytes())
			if di == 0 {
				ref[i] = sum
			}
			if sum == ref[i] {
				match++
			}
			s.add(im, f.Item.ID, 0, f.Item)
		}
		recs := s.classify(b, ph.Name)
		rows[di] = OSRow{Phone: ph, Accuracy: stability.NewAccumulator(recs...).Snapshot().Accuracy, HashMatches: match}
		all = append(all, recs...)
	}
	return rows, all
}
