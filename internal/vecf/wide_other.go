//go:build !amd64

package vecf

// useAVX2 is false off amd64: MatVec4 and OuterAccumMatTVec4 run their Go
// bodies.
const useAVX2 = false

func matVec4AVX2(y *[4][]float32, w []float32, r, c int, x *[4][]float32) {
	panic("vecf: no AVX2 kernel on this architecture")
}

func outerAccumMatTVec4AVX2(g, w []float32, i, r, c int, a float32, x, y, z *[4][]float32) int {
	panic("vecf: no AVX2 kernel on this architecture")
}
