package lp

// subScaled computes dst[j] -= f*src[j] for every j < len(dst), the row
// update at the heart of every pivot. src must be at least as long as
// dst.
//
// On amd64 with AVX2 it runs the assembly in subscaled_amd64.s,
// elsewhere subScaledGo; both compute the same bits (see "The row
// update" in doc.go).
func subScaled(dst, src []float64, f float64) {
	src = src[:len(dst)]
	if useAVX2 {
		subScaledAVX2(dst, src, f)
		return
	}
	subScaledGo(dst, src, f)
}

// subScaledGo is subScaled's portable loop and the reference the
// assembly is tested against. The float64 conversion rounds the product
// before the subtraction, so no compiler may fuse the two.
func subScaledGo(dst, src []float64, f float64) {
	src = src[:len(dst)]
	for j := range dst {
		dst[j] -= float64(f * src[j])
	}
}
