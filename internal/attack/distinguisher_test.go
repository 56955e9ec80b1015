package attack

import (
	"context"
	"errors"
	"testing"

	"repro/internal/rng"
)

// bernoulliArm returns an Arm failing with probability p.
func bernoulliArm(r *rng.Source, p float64) Arm {
	return func() bool { return r.Float64() < p }
}

// coinTarget is a fake oracle: Query fails with the probability the
// last installed hypothesis set, and forks draw from their own stream.
type coinTarget struct {
	Target
	r       *rng.Source
	p       float64
	queries int
}

func (c *coinTarget) Query() bool {
	c.queries++
	return c.r.Float64() < c.p
}

func (c *coinTarget) Queries() int { return c.queries }

func (c *coinTarget) Fork(seed uint64) (Target, error) { return &coinTarget{r: rng.New(seed)}, nil }

// coin is the hypothesis whose arm fails with probability p.
func coin(p float64) Hypothesis {
	return func(t Target) error {
		t.(*coinTarget).p = p
		return nil
	}
}

// backends returns the serial fake oracle seeded with seed and the same
// oracle behind a two-worker BatchTarget.
func backends(t *testing.T, seed uint64) map[string]Target {
	t.Helper()
	bt, err := NewBatchTarget(&coinTarget{r: rng.New(seed)}, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Target{"serial": &coinTarget{r: rng.New(seed)}, "batched": bt}
}

// pickBest runs an unmetered, uncancellable BestHypotheses, which never
// errs on a non-empty set, and returns the winner and the queries spent.
func pickBest(t *testing.T, d Distinguisher, tgt Target, hyps []Hypothesis) (best, queries int) {
	t.Helper()
	before := tgt.Queries()
	best, err := d.BestHypotheses(context.Background(), tgt, hyps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return best, tgt.Queries() - before
}

func TestBestFixedSample(t *testing.T) {
	for name, tgt := range backends(t, 1) {
		d := Distinguisher{Strategy: FixedSample, Queries: 60}
		correct := 0
		const trials = 100
		for trial := 0; trial < trials; trial++ {
			best, q := pickBest(t, d, tgt, []Hypothesis{coin(0.9), coin(0.1), coin(0.9)})
			if q != 3*60 {
				t.Fatalf("%s: queries %d", name, q)
			}
			if best == 1 {
				correct++
			}
		}
		if correct < 97 {
			t.Fatalf("%s: fixed-sample picked the quiet arm %d/%d", name, correct, trials)
		}
	}
}

func TestBestSequential(t *testing.T) {
	for name, tgt := range backends(t, 2) {
		d := Distinguisher{Strategy: Sequential, Queries: 40, P0: 0.1, P1: 0.9, Alpha: 0.01, Beta: 0.01}
		correct, totalQ := 0, 0
		const trials = 100
		for trial := 0; trial < trials; trial++ {
			best, q := pickBest(t, d, tgt, []Hypothesis{coin(0.9), coin(0.1)})
			totalQ += q
			if best == 1 {
				correct++
			}
		}
		if correct < 96 {
			t.Fatalf("%s: sequential picked the quiet arm %d/%d", name, correct, trials)
		}
		// Sequential must be cheaper than fixed-sample at similar power.
		fixedCost := 2 * 40 * trials
		if totalQ >= fixedCost {
			t.Fatalf("%s: sequential cost %d >= fixed cost %d", name, totalQ, fixedCost)
		}
	}
}

func TestBestSequentialFallsBack(t *testing.T) {
	// Two arms both failing often: no arm accepted at the nominal rate,
	// the fallback must still return a decision.
	for name, tgt := range backends(t, 3) {
		d := Distinguisher{Strategy: Sequential, Queries: 10, P0: 0.02, P1: 0.5, Alpha: 0.01, Beta: 0.01}
		best, q := pickBest(t, d, tgt, []Hypothesis{coin(0.95), coin(0.95)})
		if best != 0 && best != 1 {
			t.Fatalf("%s: best = %d", name, best)
		}
		if q == 0 {
			t.Fatalf("%s: no queries spent", name)
		}
	}
}

func TestBestSingleArm(t *testing.T) {
	for name, tgt := range backends(t, 4) {
		best, q := pickBest(t, DefaultDistinguisher(), tgt, []Hypothesis{coin(0)})
		if best != 0 || q != 0 {
			t.Fatalf("%s: single arm: best=%d q=%d", name, best, q)
		}
	}
}

func TestBestEmptyArmSet(t *testing.T) {
	for name, tgt := range backends(t, 5) {
		best, err := DefaultDistinguisher().BestHypotheses(context.Background(), tgt, nil, nil)
		if best != -1 || !errors.Is(err, ErrNoArms) || tgt.Queries() != 0 {
			t.Fatalf("%s: empty arm set: best=%d err=%v q=%d, want (-1, ErrNoArms) and no queries",
				name, best, err, tgt.Queries())
		}
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
