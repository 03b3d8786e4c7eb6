package crowd

import (
	"testing"

	"github.com/corleone-em/corleone/internal/record"
)

// TestBatchHooks verifies the journal hook fires at batch boundaries: once
// after every training batch, however many labels it settles, and after
// every HITSize labels settled by individual Label calls.
func TestBatchHooks(t *testing.T) {
	truth := truth2()
	r := NewRunner(&Oracle{Truth: truth}, 0.01)
	var boundaries int
	r.AfterBatch = func() { boundaries++ }

	// Two full HITs settle 2×HITSize labels: still one boundary, at the end.
	var req []record.Pair
	for b := 0; b < 2*HITSize; b++ {
		req = append(req, record.P(0, b+2))
	}
	if out := r.LabelTrainingBatch(req, Policy21); len(out) != len(req) {
		t.Fatalf("training batch labeled %d of %d", len(out), len(req))
	}
	if boundaries != 1 {
		t.Fatalf("training batch fired %d boundaries, want 1", boundaries)
	}

	// HITSize individual settles count as one boundary.
	for i := 0; i < HITSize; i++ {
		r.Label(record.P(2, i), Policy21)
	}
	if boundaries != 2 {
		t.Errorf("%d boundaries after %d individual labels, want 2", boundaries, HITSize)
	}
}
