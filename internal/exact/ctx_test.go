package exact

import (
	"context"
	"errors"
	"testing"

	"hsp/internal/model"
)

// TestSolveCtxCanceled: a pre-canceled context aborts the exact search
// before (or during) the DFS with an error wrapping context.Canceled.
func TestSolveCtxCanceled(t *testing.T) {
	in := model.ExampleV1(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Solve(ctx, in, Options{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve returned %v, want context.Canceled", err)
	}
	// And the uncanceled path still finds the optimum.
	if _, opt, err := Solve(context.Background(), in, Options{}, nil); err != nil || opt <= 0 {
		t.Fatalf("background solve failed: opt=%d err=%v", opt, err)
	}
}
