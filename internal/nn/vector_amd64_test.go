//go:build !purego

package nn

import "testing"

// TestTwinsTakeTheDefaultModel pins what the portable-path trade rests on: at
// the default width and the fleet's input size every convolution of both
// plans is whole 4-channel × 16-pixel vector tiles and every depthwise layer
// a geometry the vector kernel takes, so on amd64 the Go loops compute none
// of an image's backbone. A width or input size that brings a Go remainder
// back onto that path fails here, where it can be weighed, not in a profile.
func TestTwinsTakeTheDefaultModel(t *testing.T) {
	if !useVector {
		t.Skip("no vector kernels on this machine")
	}
	m := backendTestModel(t)
	x := fixedBatch(1, 3)
	for _, plan := range []struct {
		name string
		p    *inferPlan
	}{{"float32", m.inferPlan()}, {"int8", NewInt8Backend(m).plan}} {
		sc := new(Scratch)
		plan.p.features(sc, x) // sets every step's geometry
		for i, step := range plan.p.steps {
			s := sc.geom[i]
			depthwise := func(kh, kw, stride, pad int) {
				if kh != 3 || kw != 3 || !dwVectorTakes(s.h, s.w, stride, pad) {
					t.Errorf("%s step %d: the vector kernel does not take this %dx%d depthwise layer (%dx%d input)", plan.name, i, kh, kw, s.h, s.w)
				}
			}
			switch op := step.op.(type) {
			case *planConv, *qconv:
				if outC, outH, outW := op.outShape(s.c, s.h, s.w); outC%4 != 0 || outH*outW%16 != 0 {
					t.Errorf("%s step %d: a convolution to %d channels × %d pixels leaves the Go kernel a remainder", plan.name, i, outC, outH*outW)
				}
			case *planDepthwise:
				depthwise(op.l.kh, op.l.kw, op.l.stride, op.l.pad)
			case *qdepthwise:
				depthwise(op.kh, op.kw, op.stride, op.pad)
			}
		}
	}
}
