package attack

import (
	"context"
	"testing"

	"repro/internal/rng"
)

// bernoulliArm returns an Arm failing with probability p.
func bernoulliArm(r *rng.Source, p float64) Arm {
	return func() bool { return r.Float64() < p }
}

// pickBest runs an unmetered, uncancellable BestContext, which never
// errs.
func pickBest(t *testing.T, d Distinguisher, arms []Arm) (best, queries int) {
	t.Helper()
	best, queries, err := d.BestContext(context.Background(), arms, nil)
	if err != nil {
		t.Fatal(err)
	}
	return best, queries
}

func TestBestFixedSample(t *testing.T) {
	r := rng.New(1)
	d := Distinguisher{Strategy: FixedSample, Queries: 60}
	correct := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		arms := []Arm{bernoulliArm(r, 0.9), bernoulliArm(r, 0.1), bernoulliArm(r, 0.9)}
		best, q := pickBest(t, d, arms)
		if q != 3*60 {
			t.Fatalf("queries %d", q)
		}
		if best == 1 {
			correct++
		}
	}
	if correct < 97 {
		t.Fatalf("fixed-sample picked the quiet arm %d/%d", correct, trials)
	}
}

func TestBestSequential(t *testing.T) {
	r := rng.New(2)
	d := Distinguisher{Strategy: Sequential, Queries: 40, P0: 0.1, P1: 0.9, Alpha: 0.01, Beta: 0.01}
	correct, totalQ := 0, 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		arms := []Arm{bernoulliArm(r, 0.9), bernoulliArm(r, 0.1)}
		best, q := pickBest(t, d, arms)
		totalQ += q
		if best == 1 {
			correct++
		}
	}
	if correct < 96 {
		t.Fatalf("sequential picked the quiet arm %d/%d", correct, trials)
	}
	// Sequential must be cheaper than fixed-sample at similar power.
	fixedCost := 2 * 40 * trials
	if totalQ >= fixedCost {
		t.Fatalf("sequential cost %d >= fixed cost %d", totalQ, fixedCost)
	}
}

func TestBestSequentialFallsBack(t *testing.T) {
	// Two arms both failing often: no arm accepted at the nominal rate,
	// the fallback must still return a decision.
	r := rng.New(3)
	d := Distinguisher{Strategy: Sequential, Queries: 10, P0: 0.02, P1: 0.5, Alpha: 0.01, Beta: 0.01, MaxQueries: 50}
	arms := []Arm{bernoulliArm(r, 0.95), bernoulliArm(r, 0.95)}
	best, q := pickBest(t, d, arms)
	if best != 0 && best != 1 {
		t.Fatalf("best = %d", best)
	}
	if q == 0 {
		t.Fatal("no queries spent")
	}
}

func TestBestSingleArm(t *testing.T) {
	d := DefaultDistinguisher()
	best, q := pickBest(t, d, []Arm{func() bool { return false }})
	if best != 0 || q != 0 {
		t.Fatalf("single arm: best=%d q=%d", best, q)
	}
}

func TestBestEmptyArmSet(t *testing.T) {
	best, q := pickBest(t, DefaultDistinguisher(), nil)
	if best != -1 || q != 0 {
		t.Fatalf("empty arm set: best=%d q=%d, want (-1, 0)", best, q)
	}
}

func TestNormalizedClamps(t *testing.T) {
	d := Distinguisher{Strategy: Sequential, P0: 0, P1: 1}.normalized()
	if d.P0 <= 0 || d.P1 >= 1 || d.P0 >= d.P1 {
		t.Fatalf("normalized rates %v %v", d.P0, d.P1)
	}
	// Inverted calibration falls back to sane defaults.
	inv := Distinguisher{P0: 0.9, P1: 0.1}.normalized()
	if inv.P0 >= inv.P1 {
		t.Fatalf("inverted rates not repaired: %v %v", inv.P0, inv.P1)
	}
}

func TestCalibrate(t *testing.T) {
	cal := Calibration{PNominal: 0.05, PElevated: 0.8, Queries: 800}
	d := cal.Apply(Distinguisher{Strategy: Sequential})
	if d.P0 != cal.PNominal || d.P1 != cal.PElevated {
		t.Fatalf("apply set rates %v %v, want %v %v", d.P0, d.P1, cal.PNominal, cal.PElevated)
	}
	if d.P0 >= d.P1 {
		t.Fatal("apply did not order the rates")
	}
}

func TestEstimateFailureRate(t *testing.T) {
	r := rng.New(5)
	if p := EstimateFailureRate(bernoulliArm(r, 0.3), 5000); p < 0.25 || p > 0.35 {
		t.Fatalf("estimate %v", p)
	}
	if EstimateFailureRate(nil, 0) != 0 {
		t.Fatal("zero-query estimate")
	}
}

func TestStrategyString(t *testing.T) {
	if FixedSample.String() != "fixed-sample" || Sequential.String() != "sequential" {
		t.Fatal("strings wrong")
	}
}
