package isp

import (
	"repro/internal/imaging"
	"repro/internal/sensor"
)

// MedianInput runs f on a raw frame up to its first median denoise and
// returns the image that filter would read, or nil when f has none. For the
// external test that checks what a fleet feeds imaging.MedianDenoise3Into.
func (f *Pipeline) MedianInput(raw *sensor.RawImage) *imaging.Image {
	for i, s := range f.Stages {
		if d, ok := s.(Denoise); ok && d.Median {
			head := Pipeline{Demosaic: f.Demosaic, Stages: f.Stages[:i]}
			return head.Process(raw)
		}
	}
	return nil
}

// ForcePortableKernels turns the vector kernels off and returns the function
// that restores the dispatch, for tests outside the package.
func ForcePortableKernels() (restore func()) {
	was := useVector
	useVector = false
	return func() { useVector = was }
}
