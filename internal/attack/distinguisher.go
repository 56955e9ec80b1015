package attack

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/stats"
)

// This file is the statistical heart the four attacks share (the paper's
// Fig. 5): hypotheses about response bits map to helper manipulations; a
// common offset of deterministic errors pushes the ECC to the edge of
// its correction radius; the hypothesis whose failure rate stays nominal
// wins. Attacks and distinguisher live together behind the same
// oracle-agnostic Target surface.

// ErrNoArms reports a hypothesis test over an empty arm set — a malformed
// attack configuration rather than a statistical outcome. BestHypotheses
// returns it, and attacks pass it on (wrapped) instead of crashing a
// long-running campaign.
var ErrNoArms = errors.New("attack: no hypothesis arms to distinguish")

// Arm is one observation for EstimateFailureRate: a closure that
// performs one oracle query (after installing whatever manipulation it
// measures) and reports FAILURE (true = the key-dependent application
// misbehaved).
type Arm func() bool

// Hypothesis is one arm of a test expressed target-generically: Install
// writes the arm's manipulated helper (and, for reprogrammed-key
// targets, binds the predicted key) into whatever oracle it is given.
// One Query on that oracle then yields one observation. Expressing arms
// this way — rather than as closures over a fixed oracle — is what lets
// BatchTarget evaluate them concurrently against independent forks.
type Hypothesis func(t Target) error

// Strategy selects how the distinguisher spends queries.
type Strategy int

const (
	// FixedSample queries every arm the same number of times and takes
	// the arm with the fewest failures.
	FixedSample Strategy = iota
	// Sequential runs Wald's SPRT per arm against calibrated nominal
	// and elevated failure rates, returning the first arm accepted at
	// the nominal rate. Falls back to FixedSample when no arm is
	// accepted. Substantially cheaper at equal error probability — one
	// of the repository's ablations.
	Sequential
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case FixedSample:
		return "fixed-sample"
	case Sequential:
		return "sequential"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Distinguisher decides which of several helper-data hypotheses is
// correct by comparing observable failure rates.
type Distinguisher struct {
	Strategy Strategy
	// Queries is the per-arm budget of the fixed-sample strategy (and
	// of the sequential fallback).
	Queries int
	// P0 and P1 are the calibrated failure rates under the correct
	// hypothesis (nominal + injected offset) and under a wrong
	// hypothesis (one extra error beyond the offset). Sequential only.
	P0, P1 float64
	// Alpha and Beta are the designed SPRT error probabilities.
	Alpha, Beta float64
}

// DefaultDistinguisher returns a sequential distinguisher with
// conservative defaults suitable for well-separated rates.
func DefaultDistinguisher() Distinguisher {
	return Distinguisher{
		Strategy: Sequential,
		Queries:  12,
		P0:       0.05, P1: 0.95,
		Alpha: 0.01, Beta: 0.01,
	}
}

// normalized returns the distinguisher with defaults filled in and rates
// clamped away from the degenerate endpoints.
func (d Distinguisher) normalized() Distinguisher {
	if d.Queries <= 0 {
		d.Queries = 12
	}
	if d.Alpha <= 0 || d.Alpha >= 1 {
		d.Alpha = 0.01
	}
	if d.Beta <= 0 || d.Beta >= 1 {
		d.Beta = 0.01
	}
	const eps = 0.02
	if d.P0 < eps {
		d.P0 = eps
	}
	if d.P1 > 1-eps {
		d.P1 = 1 - eps
	}
	if d.P0 >= d.P1 {
		// Degenerate calibration; fall back to something sane.
		d.P0, d.P1 = 0.05, 0.95
	}
	return d
}

// BestHypotheses returns the index of the hypothesis whose failure rate
// stays nominal. An empty set returns (-1, ErrNoArms); a single arm wins
// without a query. Both backends run the same per-arm kernels (sprt,
// fixed) and differ only in the arm schedule: on a serial target each
// arm is tested in place in order and the first arm the SPRT accepts
// wins; on a BatchTarget every arm runs to its own decision on a private
// fork (see bestBatched). With no SPRT acceptance, or under FixedSample,
// the arm with the fewest failures over d.Queries wins. ctx is checked
// and the budget b (nil = unmetered) is charged before every oracle
// query; on cancellation or exhaustion it returns (-1, err). Attacks
// read the cost from Target.Queries.
func (d Distinguisher) BestHypotheses(ctx context.Context, t Target, hyps []Hypothesis, b *Budget) (int, error) {
	switch len(hyps) {
	case 0:
		return -1, ErrNoArms
	case 1:
		return 0, nil
	}
	d = d.normalized()
	if bt, ok := t.(*BatchTarget); ok {
		return d.bestBatched(ctx, bt, hyps, b)
	}
	if d.Strategy == Sequential {
		for i, h := range hyps {
			r := d.sprt(ctx, t, h, b)
			if r.err != nil {
				return -1, r.err
			}
			if r.accepted {
				return i, nil
			}
		}
		// No arm accepted at the nominal rate: fall back.
	}
	best, bestFails := 0, int(^uint(0)>>1)
	for i, h := range hyps {
		r := d.fixed(ctx, t, h, b)
		if r.err != nil {
			return -1, r.err
		}
		if r.fails < bestFails {
			best, bestFails = i, r.fails
		}
	}
	return best, nil
}

// armResult is one arm's outcome under a kernel.
type armResult struct {
	accepted bool // sprt: the test accepted H0 (nominal rate)
	fails    int  // fixed: failure count
	n        int  // queries spent
	err      error
}

// observe installs a hypothesis and performs one oracle query. An
// install failure counts as an observed failure (a helper the device
// rejects can never look nominal).
func observe(t Target, h Hypothesis) bool {
	if err := h(t); err != nil {
		return true
	}
	return t.Query()
}

// sprtCapMultiple caps a single SPRT run at this multiple of Queries.
const sprtCapMultiple = 64

// sprt runs Wald's SPRT on one arm against t until it decides or spends
// sprtCapMultiple * d.Queries, installing the hypothesis before
// every query.
func (d Distinguisher) sprt(ctx context.Context, t Target, h Hypothesis, b *Budget) armResult {
	s := stats.MakeSPRT(d.P0, d.P1, d.Alpha, d.Beta)
	decision := stats.SPRTContinue
	for decision == stats.SPRTContinue && s.N() < sprtCapMultiple*d.Queries {
		if err := queryGate(ctx, b); err != nil {
			return armResult{n: s.N(), err: err}
		}
		decision = s.Observe(observe(t, h))
	}
	return armResult{accepted: decision == stats.SPRTAcceptH0, n: s.N()}
}

// fixed counts one arm's failures against t over d.Queries queries.
func (d Distinguisher) fixed(ctx context.Context, t Target, h Hypothesis, b *Budget) armResult {
	fails := 0
	for q := 0; q < d.Queries; q++ {
		if err := queryGate(ctx, b); err != nil {
			return armResult{fails: fails, n: q, err: err}
		}
		if observe(t, h) {
			fails++
		}
	}
	return armResult{fails: fails, n: d.Queries}
}

// queryGate enforces cancellation and budget before one oracle query.
func queryGate(ctx context.Context, b *Budget) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return b.Spend(1)
}

// EstimateFailureRate queries an arm n times and returns the empirical
// failure rate.
func EstimateFailureRate(arm Arm, n int) float64 {
	p, _ := estimateRate(context.Background(), arm, n, nil)
	return p
}

// estimateRate is EstimateFailureRate with cancellation and metering.
func estimateRate(ctx context.Context, arm Arm, n int, b *Budget) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	fails := 0
	for i := 0; i < n; i++ {
		if err := queryGate(ctx, b); err != nil {
			return 0, err
		}
		if arm() {
			fails++
		}
	}
	return float64(fails) / float64(n), nil
}

// Calibration holds the failure rates measured for reference injection
// levels; attacks use it to parameterize the sequential distinguisher.
type Calibration struct {
	// PNominal is the failure rate with the common offset only (the
	// correct-hypothesis rate, Fig. 5's H-correct PDF tail).
	PNominal float64
	// PElevated is the failure rate with one extra injected error (a
	// wrong hypothesis's rate).
	PElevated float64
	// Queries spent measuring.
	Queries int
}

// Apply transfers calibrated rates onto a distinguisher.
func (c Calibration) Apply(d Distinguisher) Distinguisher {
	d.P0 = c.PNominal
	d.P1 = c.PElevated
	return d.normalized()
}

// calibrationQueries sizes each of the two rate estimates of calibrate.
const calibrationQueries = 24

// calibrate installs the nominal injection and estimates its failure
// rate over calibrationQueries queries, then does the same for the
// elevated injection, and returns the calibration with the
// distinguisher tuned to it. Each injection is installed once, before
// its queries.
func calibrate(ctx context.Context, t Target, nominal, elevated Hypothesis, b *Budget, dist Distinguisher) (Calibration, Distinguisher, error) {
	queryArm := Arm(t.Query)
	var rates [2]float64
	for i, h := range [2]Hypothesis{nominal, elevated} {
		if err := h(t); err != nil {
			return Calibration{}, Distinguisher{}, err
		}
		p, err := estimateRate(ctx, queryArm, calibrationQueries, b)
		if err != nil {
			return Calibration{}, Distinguisher{}, err
		}
		rates[i] = p
	}
	cal := Calibration{PNominal: rates[0], PElevated: rates[1], Queries: 2 * calibrationQueries}
	return cal, cal.Apply(dist), nil
}
