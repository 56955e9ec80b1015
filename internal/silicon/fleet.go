// Fleet: structure-of-arrays batched measurement. A campaign over 10^6
// seeds simulates 10^6 devices; measuring them one Array at a time pays
// per-device slice allocations at manufacture and a scalar kernel
// dispatch per oscillator sweep. Fleet manufactures N devices into
// contiguous N×numOsc component matrices (row-major: device d's
// oscillators are row d) and measures the whole fleet per sweep with
// one rng.BlockSweep chain per device over bulk fills — the same
// variates, issued as long contiguous writes instead of per-oscillator
// scalar draws.
//
// Determinism contract: row d of every Fleet measurement is
// bit-identical to the single-device counter-mode path
//
//	src := rng.New(seeds[d])
//	arr := NewArray(cfg, src)
//	nm  := arr.NewNoise(src)
//	arr.MeasureIntoWith(row, env, nm)   // sweep 0, 1, 2, ... in order
//
// — pinned by the equivalence tests in fleet_test.go.
package silicon

import (
	"fmt"

	"repro/internal/rng"
)

// Fleet is N manufactured instances of one Config with shared
// structure-of-arrays backing. Like Noise state, a Fleet carries
// its own sweep counter and is not safe for concurrent use.
type Fleet struct {
	cfg     Config
	devices int
	numOsc  int

	// Component matrices, devices×numOsc row-major.
	base       []float64
	systematic []float64
	random     []float64
	tempCoef   []float64

	// keys[d] is device d's counter-noise key (the Uint64 NewNoise
	// would have drawn); sweep is the fleet-wide measurement counter —
	// every device measures every sweep, so the shared counter stays in
	// lockstep with N per-device counters.
	keys  []uint64
	sweep uint64

	// Cached noise-free frequency matrix for trueEnv (the fleet-wide
	// Probe base vector): rebuilt in place when a measurement call
	// moves the operating point.
	trueRows  []float64
	trueEnv   Environment
	trueValid bool
}

// NewFleet manufactures one device per seed, drawing each device's
// variability and noise key from rng.New(seed) exactly as the
// single-device enrollment path does. It panics on an invalid config.
func NewFleet(cfg Config, seeds []uint64) *Fleet {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Rows * cfg.Cols
	f := &Fleet{
		cfg:        cfg,
		devices:    len(seeds),
		numOsc:     n,
		base:       make([]float64, len(seeds)*n),
		systematic: make([]float64, len(seeds)*n),
		random:     make([]float64, len(seeds)*n),
		tempCoef:   make([]float64, len(seeds)*n),
		keys:       make([]uint64, len(seeds)),
		trueRows:   make([]float64, len(seeds)*n),
	}
	for d, seed := range seeds {
		src := rng.New(seed)
		lo, hi := d*n, (d+1)*n
		cfg.manufactureInto(src, f.base[lo:hi], f.systematic[lo:hi], f.random[lo:hi], f.tempCoef[lo:hi])
		f.keys[d] = src.Uint64()
	}
	return f
}

// Config returns the fleet's configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Devices returns the number of manufactured devices (matrix rows).
func (f *Fleet) Devices() int { return f.devices }

// NumOsc returns the per-device oscillator count (matrix columns).
func (f *Fleet) NumOsc() int { return f.numOsc }

// Sweep returns the next sweep counter value (the number of measurement
// sweeps performed so far).
func (f *Fleet) Sweep() uint64 { return f.sweep }

// trueFor returns the noise-free frequency matrix for env, rebuilding
// the cache in place on an environment change. The per-element
// expression keeps the exact shape of Array.TrueFreq (the voltage term
// multiplied inside the sum, not hoisted) so any fused-multiply-add
// contraction the compiler applies is applied identically — hoisting
// vc*dV into a scalar would round differently on FMA targets and break
// the bit-identity contract.
func (f *Fleet) trueFor(env Environment) []float64 {
	if f.trueValid && f.trueEnv == env {
		return f.trueRows
	}
	dT := env.TempC - f.cfg.ReferenceTempC
	dV := env.VoltageV - f.cfg.NominalVoltageV
	vc := f.cfg.VoltCoefMHzPerV
	for i := range f.trueRows {
		f.trueRows[i] = f.base[i] + f.tempCoef[i]*dT + vc*dV
	}
	f.trueEnv = env
	f.trueValid = true
	return f.trueRows
}

// MeasureFleetInto performs one noisy measurement sweep of every
// oscillator of every device, writing the devices×numOsc frequency
// matrix row-major into dst. One counter chain per device (all sharing
// this sweep's counter value) bulk-fills the noise, then one pass
// applies the frequency model and counter quantization. Row d is
// bit-identical to MeasureIntoWith on the equivalent single device.
// Steady-state calls allocate nothing. It returns dst.
func (f *Fleet) MeasureFleetInto(dst []float64, env Environment) []float64 {
	if len(dst) != f.devices*f.numOsc {
		panic(fmt.Sprintf("silicon: MeasureFleetInto buffer length %d, want %d", len(dst), f.devices*f.numOsc))
	}
	tr := f.trueFor(env)
	rng.FillNormRows(dst, f.keys, f.sweep)
	f.sweep++
	sigma, window := f.cfg.NoiseSigmaMHz, f.cfg.CounterWindowUS
	if window > 0 {
		for i := range dst {
			dst[i] = quantizeWindow(tr[i]+sigma*dst[i], window)
		}
	} else {
		for i := range dst {
			dst[i] = tr[i] + sigma*dst[i]
		}
	}
	return dst
}
