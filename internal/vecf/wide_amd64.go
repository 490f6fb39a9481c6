package vecf

// useAVX2 reports whether MatVec4 and OuterAccumMatTVec4 run their AVX2
// bodies (wide_amd64.s): the CPU has AVX2 and the OS saves the YMM
// registers.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYMMState != xmmYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// matVec4AVX2 runs MatVec4 over rows 0..r-1; r is a multiple of 4.
//
//go:noescape
func matVec4AVX2(y *[4][]float32, w []float32, r, c int, x *[4][]float32)

// outerAccumMatTVec4AVX2 runs OuterAccumMatTVec4's fused loop over rows
// i..r-1 and returns the first of them that has a skipped term, or r.
//
//go:noescape
func outerAccumMatTVec4AVX2(g, w []float32, i, r, c int, a float32, x, y, z *[4][]float32) int
