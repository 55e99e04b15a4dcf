package cpu

// AVX2 reports that the AVX2 kernels may run. It is set once, from CPUID,
// and only read afterwards.
var AVX2 = detect(cpuid, xgetbv)

// cpuid executes CPUID with the given EAX and ECX.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. It faults unless CPUID reports
// OSXSAVE.
func xgetbv() (eax, edx uint32)

// detect reports whether the processor has AVX2 and the operating system
// saves the YMM registers across context switches (OSXSAVE, then XCR0 bits 1
// and 2).
func detect(cpuid func(eax, ecx uint32) (a, b, c, d uint32), xgetbv func() (eax, edx uint32)) bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx      = 1 << 28 // CPUID.1:ECX
		avx2     = 1 << 5  // CPUID.7.0:EBX
		ymmState = 0b110   // XCR0: SSE and AVX state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmState != ymmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
