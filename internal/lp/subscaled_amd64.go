package lp

// useAVX2 reports, once at package init, whether subScaled may run its
// AVX2 kernel: the CPU has AVX2 and the OS saves the YMM registers.
var useAVX2 = hasAVX2()

// subScaledAVX2 is subScaled on 256-bit vectors; len(src) ≥ len(dst).
//
//go:noescape
func subScaledAVX2(dst, src []float64, f float64)

// cpuid executes CPUID with the given leaf (eax) and subleaf (ecx).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0; callers must first see OSXSAVE.
func xgetbv() uint32

// hasAVX2 checks CPUID leaf 1 for OSXSAVE (ECX bit 27) and AVX (bit 28),
// XCR0 for the OS saving XMM (bit 1) and YMM (bit 2) state, and CPUID
// leaf 7 for AVX2 (EBX bit 5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmm, ymm = 1 << 1, 1 << 2
	if xgetbv()&(xmm|ymm) != xmm|ymm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
