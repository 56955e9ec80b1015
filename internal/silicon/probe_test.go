package silicon

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// TestProbeMatchesMeasureSparse pins the Probe determinism contract:
// Measure is bit-identical to MeasureSparse over Indices() — across an
// environment change, and across Remanufactured on the same array
// pointer with no call to the Probe in between (the generation key
// must refresh the cached noise-free vector by itself) — and both
// paths leave their noise at the same sweep.
func TestProbeMatchesMeasureSparse(t *testing.T) {
	for _, window := range []float64{0, 50} {
		cfg := DefaultConfig(8, 16)
		cfg.CounterWindowUS = window
		a := NewArray(cfg, rng.New(1))
		var p Probe
		p.Reset(a.N())
		// Unordered, with repeats: Indices must sort and deduplicate.
		for _, i := range []int{42, 3, 127, 3, 0, 17, 18, 42, 64} {
			p.Add(i)
		}
		want := []int{0, 3, 17, 18, 42, 64, 127}
		if got := p.Indices(); !slices.Equal(got, want) {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
		nmProbe, nmRef := a.NewNoise(rng.New(9)), a.NewNoise(rng.New(9))
		ref := make([]float64, a.N())
		hot := Environment{TempC: 80, VoltageV: 1.1}
		steps := []struct {
			env   Environment
			remfg uint64 // nonzero: remanufacture a in place from this seed first
		}{
			{cfg.NominalEnv(), 0}, {cfg.NominalEnv(), 0}, {hot, 0},
			{hot, 5}, {cfg.NominalEnv(), 0}, {cfg.NominalEnv(), 6},
		}
		for si, st := range steps {
			if st.remfg != 0 {
				if b := a.Remanufactured(cfg, rng.New(st.remfg)); b != a {
					t.Fatal("Remanufactured did not keep the array pointer")
				}
			}
			got := p.Measure(a, st.env, nmProbe)
			a.MeasureSparse(ref, p.Indices(), st.env, nmRef)
			for _, i := range p.Indices() {
				if got[i] != ref[i] {
					t.Fatalf("window=%v step %d osc %d: Probe %v, MeasureSparse %v", window, si, i, got[i], ref[i])
				}
			}
			if *nmProbe != *nmRef {
				t.Fatalf("window=%v step %d: noise state diverged", window, si)
			}
		}
	}
}

// TestProbeSteadyStateAllocs is the hot-path fence: once the buffers
// have grown, measuring — including across environment changes, which
// rebuild the base vector in place — allocates nothing.
func TestProbeSteadyStateAllocs(t *testing.T) {
	a := NewArray(DefaultConfig(8, 16), rng.New(1))
	nm := a.NewNoise(rng.New(2))
	var p Probe
	p.Reset(a.N())
	for i := 0; i < a.N(); i += 3 {
		p.Add(i)
	}
	envA, envB := a.Config().NominalEnv(), Environment{TempC: 80, VoltageV: 1.1}
	p.Measure(a, envA, nm)
	if allocs := testing.AllocsPerRun(100, func() {
		p.Measure(a, envA, nm)
		p.Measure(a, envB, nm)
	}); allocs != 0 {
		t.Fatalf("steady-state Probe.Measure allocates %v/run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.Reset(a.N())
		p.Add(5)
		p.Add(1)
		p.Measure(a, envA, nm)
	}); allocs != 0 {
		t.Fatalf("steady-state Probe.Reset/Add/Measure allocates %v/run, want 0", allocs)
	}
}
