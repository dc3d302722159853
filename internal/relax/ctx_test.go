package relax

import (
	"context"
	"errors"
	"testing"

	"hsp/internal/model"
)

// TestMinFeasibleTCtxCanceled: cancellation surfaces from the binary
// search as an error wrapping context.Canceled, and the plain entry
// point still works.
func TestMinFeasibleTCtxCanceled(t *testing.T) {
	in := model.ExampleII1()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MinFeasibleT(ctx, in, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled search returned %v, want context.Canceled", err)
	}
	tStar, err := MinFeasibleT(context.Background(), in, nil)
	if err != nil || tStar != 2 {
		t.Fatalf("background search failed: T*=%d err=%v", tStar, err)
	}
}
