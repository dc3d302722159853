// Package scratch provides the grow-or-reuse slice helpers shared by the
// solver workspaces (internal/lp, internal/exact, internal/relax): buffers
// grow monotonically to the largest size seen and are reused in place,
// which is what makes the hot paths allocation-free steady-state (see
// PERFORMANCE.md).
package scratch

// Grow returns a length-n slice, reusing buf's backing array when it is
// large enough. Contents are unspecified: callers overwrite every
// element or Clear first.
func Grow[S ~[]E, E any](buf S, n int) S {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make(S, n)
}

// Clear zeroes the slice (compiles to a memclr for simple element
// types).
func Clear[S ~[]E, E any](buf S) {
	var zero E
	for i := range buf {
		buf[i] = zero
	}
}
