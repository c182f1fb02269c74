//go:build !amd64

package linalg

// Non-amd64 build: no SIMD kernels. haveFMA reports false, so the
// dispatch in kernels.go always takes the portable Go paths and these
// stubs are unreachable; they exist only to satisfy the linker.

func haveFMA() bool { return false }

// fmaAxpy is unreachable on this architecture. Panics if called.
func fmaAxpy(alpha float64, x, y *float64, n int) {
	panic("linalg: SIMD kernel called without hardware support")
}

// fmaDot is unreachable on this architecture. Panics if called.
func fmaDot(x, y *float64, n int) float64 {
	panic("linalg: SIMD kernel called without hardware support")
}
