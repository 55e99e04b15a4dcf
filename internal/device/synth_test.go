package device

import (
	"math/rand"
	"testing"

	"repro/internal/isp"
)

func TestSynthesizeDeterministic(t *testing.T) {
	base := LabPhones()[0]
	a := Synthesize(base, "clone-a", rand.New(rand.NewSource(42)))
	b := Synthesize(base, "clone-a", rand.New(rand.NewSource(42)))
	if a.Sensor.Params != b.Sensor.Params {
		t.Fatalf("sensor params diverged: %+v vs %+v", a.Sensor.Params, b.Sensor.Params)
	}
	if a.Codec.Name() != b.Codec.Name() || a.Decode != b.Decode {
		t.Fatalf("codec/decode diverged: %s/%v vs %s/%v", a.Codec.Name(), a.Decode, b.Codec.Name(), b.Decode)
	}
	if a.ISP.Describe() != b.ISP.Describe() {
		t.Fatalf("isp diverged: %s vs %s", a.ISP.Describe(), b.ISP.Describe())
	}
}

func TestSynthesizeDoesNotMutateBase(t *testing.T) {
	base := LabPhones()[0]
	before := base.Sensor.Params
	stages := len(base.ISP.Stages)
	codecName := base.Codec.Name()
	_ = Synthesize(base, "clone", rand.New(rand.NewSource(1)))
	if base.Sensor.Params != before || len(base.ISP.Stages) != stages || base.Codec.Name() != codecName {
		t.Fatal("Synthesize mutated the base profile")
	}
}

func TestSynthesizeVariesAcrossSeeds(t *testing.T) {
	base := LabPhones()[2] // htc: fixed WB, power gamma — most jitterable stages
	a := Synthesize(base, "a", rand.New(rand.NewSource(1)))
	b := Synthesize(base, "b", rand.New(rand.NewSource(2)))
	if a.Sensor.Params == b.Sensor.Params {
		t.Fatal("two seeds produced identical sensors")
	}
	// Over many seeds the decoder flip must actually occur, and both chroma
	// paths must appear in the synthesized population.
	flips := 0
	for s := int64(0); s < 100; s++ {
		p := Synthesize(base, "x", rand.New(rand.NewSource(s)))
		if p.Decode != base.Decode {
			flips++
		}
	}
	if flips == 0 || flips == 100 {
		t.Fatalf("decoder flips = %d/100, want a minority mix", flips)
	}
}

func TestSynthesizeKeepsStructure(t *testing.T) {
	for _, base := range LabPhones() {
		p := Synthesize(base, base.Name+"-syn", rand.New(rand.NewSource(3)))
		if p.Name != base.Name+"-syn" {
			t.Fatalf("name %q", p.Name)
		}
		if len(p.ISP.Stages) != len(base.ISP.Stages) {
			t.Fatalf("%s: stage count changed %d → %d", base.Name, len(base.ISP.Stages), len(p.ISP.Stages))
		}
		if p.RawCapable != base.RawCapable {
			t.Fatalf("%s: raw capability changed", base.Name)
		}
	}
}

// BenchmarkFuse compiles one synthesized device of each cohort into its
// fused ISP, the part of a fleet device's synthesis that bakes every curve
// stage into a table, one gamma power a table entry.
func BenchmarkFuse(b *testing.B) {
	for i, base := range LabPhones() {
		p := Synthesize(base, base.Name+"/bench", rand.New(rand.NewSource(int64(i))))
		b.Run(base.Name, func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				isp.Fuse(p.ISP)
			}
		})
	}
}
