//go:build amd64

package linalg

// Declarations for the AVX2+FMA kernels in kernels_amd64.s, plus the
// CPUID feature probe that gates them. The assembly is only ever reached
// through the dispatch in kernels.go after haveFMA() has confirmed AVX2,
// FMA, and OS support for saving YMM state.

func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func fmaAxpy(alpha float64, x, y *float64, n int)

//go:noescape
func fmaDot(x, y *float64, n int) float64

// haveFMA reports whether the CPU and OS support the AVX2+FMA kernels:
// CPUID leaf 1 must show OSXSAVE+AVX+FMA, XGETBV(0) must show the OS
// saves XMM and YMM state, and CPUID leaf 7 must show AVX2.
func haveFMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx, _ := cpuidex(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
		fma     = 1 << 12
	)
	if ecx&osxsave == 0 || ecx&avx == 0 || ecx&fma == 0 {
		return false
	}
	if xa, _ := xgetbv0(); xa&0x6 != 0x6 {
		return false
	}
	_, ebx, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx&avx2 != 0
}
