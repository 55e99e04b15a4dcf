package cpu

import "testing"

// TestDetectVector drives the dispatch decision with made-up CPUID and XCR0
// values: AVX2 is reported only when the processor has it and the operating
// system saves the YMM state, and XGETBV — which faults without OSXSAVE — is
// executed only when CPUID allows it.
func TestDetectVector(t *testing.T) {
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5
	)
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		want                      bool
	}{
		{"AVX2 and OS support", 0x1b, osxsave | avx | 0x7ed8320b, avx2 | 0xd19f47ab&^avx2, 0xe7, true},
		{"just the needed bits", 7, osxsave | avx, avx2, 0b110, true},
		{"leaf 7 absent", 6, osxsave | avx, avx2, 0b111, false},
		{"no OSXSAVE", 7, avx, avx2, 0b111, false},
		{"no AVX", 7, osxsave, avx2, 0b111, false},
		{"no AVX2", 7, osxsave | avx, ^uint32(avx2), 0b111, false},
		{"OS saves no YMM state", 7, osxsave | avx, avx2, 0b011, false},
		{"OS saves no SSE state", 7, osxsave | avx, avx2, 0b101, false},
		{"nothing at all", 0, 0, 0, 0, false},
	} {
		cpuid := func(eax, ecx uint32) (a, b, cx, d uint32) {
			switch {
			case eax == 0:
				return c.maxLeaf, 0x756e6547, 0x6c65746e, 0x49656e69
			case eax > c.maxLeaf:
				t.Errorf("%s: CPUID leaf %d read past the maximum %d", c.name, eax, c.maxLeaf)
			case eax == 1:
				return 0, 0, c.ecx1, 0
			case eax == 7 && ecx == 0:
				return 0, c.ebx7, 0, 0
			}
			return 0, 0, 0, 0
		}
		xgetbv := func() (eax, edx uint32) {
			if c.ecx1&osxsave == 0 {
				t.Errorf("%s: XGETBV executed without OSXSAVE", c.name)
			}
			return c.xcr0, 0
		}
		if got := detect(cpuid, xgetbv); got != c.want {
			t.Errorf("%s: detect = %v, want %v", c.name, got, c.want)
		}
	}
	if want := detect(cpuid, xgetbv); AVX2 != want {
		t.Errorf("AVX2 = %v on a machine where detection says %v", AVX2, want)
	}
}
