//go:build !amd64

package lp

// useAVX2 is false off amd64: subScaled always runs subScaledGo.
const useAVX2 = false

// subScaledAVX2 has no assembly off amd64; subScaled never calls it.
func subScaledAVX2(dst, src []float64, f float64) { subScaledGo(dst, src, f) }
