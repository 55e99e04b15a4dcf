package lab

import (
	"crypto/md5"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/stability"
)

// This file holds the §7 OS-decoder measurement and the within-phone repeat
// of §4. cmd/paper renders what they return and the root benchmarks assert
// on it; neither walks a capture → encode/decode → classify loop of its own,
// so the full-scale tables and the reduced-scale metrics cannot drift
// apart. The codec (§5), software-ISP (§6) and raw-capture (§9.2) stage
// swaps are a run's format (fleet.Config.Format), not lab loops.

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
