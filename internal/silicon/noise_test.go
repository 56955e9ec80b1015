package silicon

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

func noiseTestArray(rows, cols int) *Array {
	return NewArray(DefaultConfig(rows, cols), rng.New(1))
}

// TestMeasureSparseCounterMatchesFull pins the counter identity
// contract: a sparse sweep reproduces exactly the values a full sweep
// with the same (key, sweep counter) would produce at those indices —
// while drawing only the subset's noise.
func TestMeasureSparseCounterMatchesFull(t *testing.T) {
	a := noiseTestArray(8, 16)
	env := a.Config().NominalEnv()
	full := a.NewNoise(rng.New(77))
	sparse := a.NewNoise(rng.New(77))
	idxs := []int{0, 1, 5, 17, 18, 19, 42, 127}
	ref := make([]float64, a.N())
	got := make([]float64, a.N())
	for round := 0; round < 5; round++ {
		a.MeasureIntoWith(ref, env, full)
		a.MeasureSparse(got, idxs, env, sparse)
		for _, i := range idxs {
			if got[i] != ref[i] {
				t.Fatalf("round %d osc %d: sparse %v != full %v", round, i, got[i], ref[i])
			}
		}
	}
}

// TestMeasureIntoMatchesMeasureAll pins the bulk path: MeasureIntoWith
// into a caller-owned buffer and the allocating MeasureAllWith produce
// bit-identical frequencies, with and without counter quantization, and
// leave their noise at the same sweep.
func TestMeasureIntoMatchesMeasureAll(t *testing.T) {
	for _, window := range []float64{0, 2.5} {
		cfg := DefaultConfig(6, 7)
		cfg.CounterWindowUS = window
		a := NewArray(cfg, rng.New(1))
		env := Environment{TempC: 40, VoltageV: 1.15}

		nmA, nmB := a.NewNoise(rng.New(99)), a.NewNoise(rng.New(99))
		ref := a.MeasureAllWith(env, nmA)
		dst := make([]float64, a.N())
		a.MeasureIntoWith(dst, env, nmB)
		for i := range ref {
			if ref[i] != dst[i] {
				t.Fatalf("window=%v: oscillator %d: MeasureIntoWith %v != MeasureAllWith %v", window, i, dst[i], ref[i])
			}
		}
		if *nmA != *nmB {
			t.Fatalf("window=%v: noise state diverged after bulk measurement", window)
		}
	}
}

// TestCounterSweepAdvances checks that consecutive sweeps never share
// noise and that a dedicated model reproduces any sweep from scratch
// (per-(query, index) determinism).
func TestCounterSweepAdvances(t *testing.T) {
	a := noiseTestArray(4, 8)
	env := a.Config().NominalEnv()
	nm := a.NewNoise(rng.New(5))
	sweeps := make([][]float64, 4)
	for r := range sweeps {
		sweeps[r] = append([]float64(nil), a.MeasureIntoWith(make([]float64, a.N()), env, nm)...)
	}
	for r := 1; r < len(sweeps); r++ {
		same := 0
		for i := range sweeps[r] {
			if sweeps[r][i] == sweeps[r-1][i] {
				same++
			}
		}
		if same > 0 {
			t.Fatalf("sweeps %d and %d share %d values", r-1, r, same)
		}
	}
	// Replaying from a fresh model with the same key reproduces sweep 0
	// onward bit for bit.
	replay := a.NewNoise(rng.New(5))
	for r := range sweeps {
		got := a.MeasureIntoWith(make([]float64, a.N()), env, replay)
		for i := range got {
			if got[i] != sweeps[r][i] {
				t.Fatalf("replay sweep %d diverged at osc %d", r, i)
			}
		}
	}
}

// TestNoiseForkIndependence checks the fork construction devices use
// (Array.NewNoise over rng.New(forkSeed)) for determinism and
// independence: same seed → identical variates, different seeds →
// distinct variates.
func TestNoiseForkIndependence(t *testing.T) {
	arr := noiseTestArray(8, 8)
	a, b, c := arr.NewNoise(rng.New(10)), arr.NewNoise(rng.New(10)), arr.NewNoise(rng.New(11))
	bufA := make([]float64, 64)
	bufB := make([]float64, 64)
	bufC := make([]float64, 64)
	a.fill(bufA)
	b.fill(bufB)
	c.fill(bufC)
	same := 0
	for i := range bufA {
		if bufA[i] != bufB[i] {
			t.Fatalf("forks with equal seeds diverge at %d", i)
		}
		if bufA[i] == bufC[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forks with different seeds share %d values", same)
	}
}

// TestMeasureAveragedWithCounterMoments sanity-checks the counter-mode
// enrollment averaging: the per-oscillator mean over many sweeps must
// converge to the true frequency.
func TestMeasureAveragedWithCounterMoments(t *testing.T) {
	a := noiseTestArray(4, 8)
	env := a.Config().NominalEnv()
	nm := a.NewNoise(rng.New(123))
	got := a.MeasureAveragedWith(env, nm, 400)
	sigma := a.Config().NoiseSigmaMHz
	for i := range got {
		if diff := math.Abs(got[i] - a.TrueFreq(i, env)); diff > 4*sigma/20 {
			t.Fatalf("osc %d: averaged %v vs true %v (diff %v)", i, got[i], a.TrueFreq(i, env), diff)
		}
	}
}

// BenchmarkMeasureSparse is the sparse-measurement cost curve: the
// counter model draws only the subset's noise, so the cost scales with
// the subset fraction k/N.
func BenchmarkMeasureSparse(b *testing.B) {
	const rows, cols = 16, 32
	for _, frac := range []int{1, 4, 8, 32} {
		var idxs []int
		for i := 0; i < rows*cols; i += frac {
			idxs = append(idxs, i)
		}
		b.Run(fmt.Sprintf("frac-1of%d", frac), func(b *testing.B) {
			a := noiseTestArray(rows, cols)
			env := a.Config().NominalEnv()
			nm := a.NewNoise(rng.New(1))
			dst := make([]float64, a.N())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.MeasureSparse(dst, idxs, env, nm)
			}
		})
	}
}
