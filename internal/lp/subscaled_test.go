package lp

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// kernels returns the row-update kernels this machine can run beside the
// Go reference: the dispatched subScaled, and the AVX2 assembly itself
// when the CPU and OS allow it.
func kernels() map[string]func(dst, src []float64, f float64) {
	ks := map[string]func(dst, src []float64, f float64){"subScaled": subScaled}
	if useAVX2 {
		ks["subScaledAVX2"] = subScaledAVX2
	}
	return ks
}

// sameBits reports whether a and b are the same float64 bit pattern, or
// both NaN: x86 picks a NaN result's payload by operand order, which the
// Go compiler is free to choose for the scalar product.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkKernels runs every kernel on a copy of dst[off:off+n] and compares
// it with subScaledGo's result element by element, and checks that the
// elements around the window are left alone.
func checkKernels(t *testing.T, dst, src []float64, off, n int, f float64) {
	t.Helper()
	want := append([]float64(nil), dst...)
	subScaledGo(want[off:off+n], src[off:off+n], f)
	for name, k := range kernels() {
		got := append([]float64(nil), dst...)
		k(got[off:off+n], src[off:off+n], f)
		for j := range got {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("%s(off=%d, n=%d, f=%g): element %d = %g (%#x), Go loop %g (%#x)",
					name, off, n, f, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
}

// TestSubScaledMatchesReference pins the pivot's row-update kernel to the
// Go loop bit for bit, over every length 0–67 (the 16-wide loop, the
// 4-wide step and the scalar tail in all their combinations) at start
// offsets 0–3 (unaligned vectors), on values that probe IEEE corners.
func TestSubScaledMatchesReference(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this machine: only the Go path ran")
	}
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, -3.75, 1e300, -1e300, 1e-300, -1e-300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 2.5e-17, 1 + 0x1p-52,
	}
	factors := []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, 0.3, -7.125e5, 1e300}
	const maxLen, maxOff = 67, 3
	dst := make([]float64, maxLen+2*maxOff)
	src := make([]float64, maxLen+2*maxOff)
	for _, f := range factors {
		for n := 0; n <= maxLen; n++ {
			for off := 0; off <= maxOff; off++ {
				for j := range dst {
					// Co-prime strides pair every special with many others.
					dst[j] = specials[(j*7+n+off)%len(specials)]
					src[j] = specials[(j*3+2*n)%len(specials)]
				}
				checkKernels(t, dst, src, off, n, f)
			}
		}
	}
}

// FuzzSubScaled is TestSubScaledMatchesReference on arbitrary bit
// patterns: raw supplies (dst, src) element pairs, off the window start.
func FuzzSubScaled(f *testing.F) {
	seed := make([]byte, 16*21)
	for i := range 42 {
		binary.LittleEndian.PutUint64(seed[8*i:], math.Float64bits(float64(i)*1.5-20))
	}
	f.Add(seed, 0.75, uint8(1))
	f.Add([]byte{}, 1.0, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, factor float64, off uint8) {
		n := len(raw) / 16
		dst, src := make([]float64, n), make([]float64, n)
		for j := range n {
			dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*j:]))
			src[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*j+8:]))
		}
		start := min(int(off)%4, n)
		checkKernels(t, dst, src, start, n-start, factor)
	})
}

// BenchmarkSubScaled times the pivot's row update alone, the
// dispatched kernel against the Go loop, at two row widths: about a
// served (IP-3) tableau's (230 columns) and about E12's m=32 tableau's
// (10,000). Bytes count the two rows read and the one written.
func BenchmarkSubScaled(b *testing.B) {
	for _, k := range []struct {
		name string
		fn   func(dst, src []float64, f float64)
	}{{"kernel", subScaled}, {"go", subScaledGo}} {
		for _, n := range []int{230, 10000} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				dst, src := make([]float64, n), make([]float64, n)
				for j := range src {
					dst[j], src[j] = float64(j%17)-8, 1/float64(j+1)
				}
				b.SetBytes(int64(24 * n))
				for b.Loop() {
					k.fn(dst, src, 0.5)
				}
			})
		}
	}
}
