package optresm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"crsharing/internal/harness"
	"crsharing/internal/solver"
)

// TestEnumerationHonoursDeadline pins the context polling inside a round of
// configuration enumeration: on the eight-processor corpus instance
// wide-many-proc/1 a single round takes well over a second, so a kernel that
// polls only between rounds overshoots a 2 s deadline by 1-2 s. Both the
// enumeration itself and the chunked heuristic built on it must return
// within the deadline plus 250 ms.
func TestEnumerationHonoursDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 2 s solves")
	}
	inst := harness.BuildCorpus(1).Family(harness.FamilyWideManyProc).Instances[1]
	const deadline, slack = 2 * time.Second, 250 * time.Millisecond
	for _, name := range []string{"opt-res-assignment-2", "chunked-exact-w2"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := solver.Default().New(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			_, _, err = s.Solve(ctx, inst)
			elapsed := time.Since(start)
			if err == nil {
				t.Skipf("solved within the deadline (%v); the instance no longer probes cancellation", elapsed)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("want a deadline error, got %v", err)
			}
			if elapsed > deadline+slack {
				t.Fatalf("returned after %v, deadline %v + %v", elapsed, deadline, slack)
			}
		})
	}
}
