package metrics

import (
	"math"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/record"
)

func TestEvaluate(t *testing.T) {
	truth := record.NewGroundTruth([]record.Pair{
		record.P(0, 0), record.P(1, 1), record.P(2, 2), record.P(3, 3),
	})
	// Predict 3 pairs: 2 true positives, 1 false positive.
	pred := []record.Pair{record.P(0, 0), record.P(1, 1), record.P(5, 5)}
	m := Evaluate(pred, truth)
	if math.Abs(m.P-200.0/3) > 1e-9 {
		t.Errorf("P = %v, want 66.67", m.P)
	}
	if m.R != 50 {
		t.Errorf("R = %v, want 50", m.R)
	}
	wantF1 := 100 * 2 * (2.0 / 3) * 0.5 / (2.0/3 + 0.5)
	if math.Abs(m.F1-wantF1) > 1e-9 {
		t.Errorf("F1 = %v, want %v", m.F1, wantF1)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	truth := record.NewGroundTruth([]record.Pair{record.P(0, 0)})
	m := Evaluate(nil, truth)
	if m.P != 0 || m.R != 0 || m.F1 != 0 {
		t.Errorf("empty predictions: %v", m)
	}
	empty := record.NewGroundTruth(nil)
	m = Evaluate([]record.Pair{record.P(0, 0)}, empty)
	if m.R != 0 {
		t.Errorf("no actual positives: R = %v", m.R)
	}
}

func TestEvaluateOn(t *testing.T) {
	truth := record.NewGroundTruth([]record.Pair{record.P(0, 0), record.P(1, 1)})
	subset := []record.Pair{record.P(0, 0), record.P(5, 5)}
	// Predictions include a pair outside the subset; it must be ignored.
	pred := []record.Pair{record.P(0, 0), record.P(1, 1)}
	m := EvaluateOn(pred, subset, truth)
	if m.P != 100 || m.R != 100 {
		t.Errorf("subset metrics = %v, want perfect (only P(0,0) counts)", m)
	}
}

func TestPRFString(t *testing.T) {
	s := PRF{P: 97.03, R: 96.12, F1: 96.5}.String()
	if !strings.Contains(s, "97.0") || !strings.Contains(s, "96.1") {
		t.Errorf("String = %q", s)
	}
}
