package tensor

// useAVX routes axpy4 and axpyPanel through the four-lane assembly loops
// in simd_amd64.s. It is set once, at package init, from
// CPUID and XGETBV: the CPU must report AVX and OSXSAVE, and the OS must
// save the XMM and YMM registers on a context switch. Tests flip it to
// cover the portable loops on an AVX machine.
var useAVX = detectAVX()

func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6 // XCR0 bit 1: XMM state, bit 2: YMM state
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// axpy4AVX is axpy4's loop over all of b0; out, b1, b2 and b3 must be at
// least as long.
//
//go:noescape
func axpy4AVX(out, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

// axpyPanelAVX is axpyPanel's loop over all of brow; out must be at least
// as long.
//
//go:noescape
func axpyPanelAVX(out, brow []float64, av float64)
