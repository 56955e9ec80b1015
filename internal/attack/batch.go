package attack

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/helperdata"
	"repro/internal/rng"
)

// BatchTarget is the batched concurrent oracle backend: it wraps a
// forkable target and makes the distinguisher evaluate the arms of one
// hypothesis test concurrently, each against an independent oracle fork
// on a bounded worker pool.
//
// Determinism is the design constraint, mirroring internal/campaign:
// the fork evaluating arm a of test number k draws its measurement
// noise from rng.StreamSeed(rng.StreamSeed(seed, k), a) — a pure
// function of (backend seed, test index, arm index) — and every arm
// runs to its own decision with no cross-arm early exit. Results and
// query counts are therefore bit-identical for any Workers value; only
// the wall time changes.
//
// Serial uses of the target (calibration sweeps, single-arm tests,
// direct Query calls) pass through to the wrapped oracle unchanged.
type BatchTarget struct {
	inner   Target
	forker  Forker
	workers int
	seed    uint64
	test    atomic.Uint64
	extra   atomic.Int64 // queries spent on forks
}

// NewBatchTarget wraps a forkable target. workers bounds the arm pool
// (<= 1 still evaluates on forked streams, just serially — useful to
// check the invariance property). The seed pins the backend's noise
// derivation.
func NewBatchTarget(t Target, workers int, seed uint64) (*BatchTarget, error) {
	f, ok := t.(Forker)
	if !ok {
		return nil, fmt.Errorf("attack: %T cannot fork; BatchTarget needs a Forker", t)
	}
	if workers < 1 {
		workers = 1
	}
	return &BatchTarget{inner: t, forker: f, workers: workers, seed: seed}, nil
}

// Spec implements Target.
func (bt *BatchTarget) Spec() Spec { return bt.inner.Spec() }

// ReadImage implements Target.
func (bt *BatchTarget) ReadImage() (*helperdata.Image, error) { return bt.inner.ReadImage() }

// WriteImage implements Target.
func (bt *BatchTarget) WriteImage(im *helperdata.Image) error { return bt.inner.WriteImage(im) }

// Query implements Target (serial pass-through).
func (bt *BatchTarget) Query() bool { return bt.inner.Query() }

// Queries implements Target: the wrapped oracle's count plus everything
// spent on forks.
func (bt *BatchTarget) Queries() int { return bt.inner.Queries() + int(bt.extra.Load()) }

// BindKey forwards the reprogrammed-key binding to the wrapped oracle
// when it supports one (attacks check support via the unwrapped target
// before relying on it).
func (bt *BatchTarget) BindKey(key bitvec.Vector) {
	if kb, ok := bt.inner.(KeyBinder); ok {
		kb.BindKey(key)
	}
}

// bestBatched is BestHypotheses' batched arm schedule: every arm runs
// the kernel to its own decision on a private fork, with no cross-arm
// early exit, and the lowest-indexed accepted arm wins. See the
// BatchTarget doc comment for the determinism argument. A budget that
// runs out mid-test aborts the attack (ErrBudgetExhausted), so the
// nondeterministic interleaving of a *failing* run never leaks into a
// completed result.
func (d Distinguisher) bestBatched(ctx context.Context, bt *BatchTarget, hyps []Hypothesis, b *Budget) (int, error) {
	testSeed := rng.StreamSeed(bt.seed, bt.test.Add(1)-1)
	armOffset := 0
	if d.Strategy == Sequential {
		best := -1
		for i, r := range bt.evalArms(ctx, testSeed, 0, hyps, b, d.sprt) {
			if r.err != nil {
				return -1, r.err
			}
			if r.accepted && best == -1 {
				best = i
			}
		}
		if best >= 0 {
			return best, nil
		}
		// No arm accepted at the nominal rate: fixed-sample fallback on
		// fresh forks (arm seeds offset past the SPRT round's).
		armOffset = len(hyps)
	}
	best, bestFails := 0, int(^uint(0)>>1)
	for i, r := range bt.evalArms(ctx, testSeed, armOffset, hyps, b, d.fixed) {
		if r.err != nil {
			return -1, r.err
		}
		if r.fails < bestFails {
			best, bestFails = i, r.fails
		}
	}
	return best, nil
}

// evalArms forks one oracle per arm and evaluates all arms on the
// bounded worker pool. Arm i's fork is seeded by StreamSeed(testSeed,
// armOffset+i), so the full result slice is a pure function of the
// inputs regardless of pool size or scheduling.
func (bt *BatchTarget) evalArms(ctx context.Context, testSeed uint64, armOffset int, hyps []Hypothesis, b *Budget, eval func(context.Context, Target, Hypothesis, *Budget) armResult) []armResult {
	res := make([]armResult, len(hyps))
	sem := make(chan struct{}, bt.workers)
	var wg sync.WaitGroup
	for i, h := range hyps {
		wg.Add(1)
		go func(i int, h Hypothesis) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fork, err := bt.forker.Fork(rng.StreamSeed(testSeed, uint64(armOffset+i)))
			if err != nil {
				res[i] = armResult{err: err}
				return
			}
			res[i] = eval(ctx, fork, h, b)
			bt.extra.Add(int64(res[i].n))
		}(i, h)
	}
	wg.Wait()
	return res
}
