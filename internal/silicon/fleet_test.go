package silicon

import (
	"testing"

	"repro/internal/rng"
)

// fleetTestConfig is the equivalence-test parameterization: counter
// noise (the only model Fleet supports) over the standard 8x16 layout.
func fleetTestConfig(windowUS float64) Config {
	cfg := DefaultConfig(8, 16)
	cfg.Noise = NoiseCounter
	cfg.CounterWindowUS = windowUS
	return cfg
}

// singleDevice is the reference path every fleet row is pinned against:
// the exact enrollment sequence of the device layer.
type singleDevice struct {
	arr *Array
	nm  *Noise
}

func newSingleDevice(cfg Config, seed uint64) singleDevice {
	src := rng.New(seed)
	arr := NewArray(cfg, src)
	return singleDevice{arr: arr, nm: arr.NewNoise(src)}
}

// TestFleetMatchesSingleDevicePath pins the Fleet determinism contract:
// through a schedule of sweeps across environment changes — with and
// without counter quantization — every row of every fleet measurement
// is bit-identical to the single-device counter-mode path
// (MeasureIntoWith) at the same sweep counter.
func TestFleetMatchesSingleDevicePath(t *testing.T) {
	for _, windowUS := range []float64{0, 50} {
		cfg := fleetTestConfig(windowUS)
		n := cfg.Rows * cfg.Cols
		seeds := []uint64{1, 2, 42, 1 << 33}
		fleet := NewFleet(cfg, seeds)
		devs := make([]singleDevice, len(seeds))
		for d, seed := range seeds {
			devs[d] = newSingleDevice(cfg, seed)
		}

		envA := cfg.NominalEnv()
		envB := Environment{TempC: 80, VoltageV: 1.1}
		schedule := []Environment{envA, envA, envA, envB, envB, envA, envA}

		got := make([]float64, len(seeds)*n)
		want := make([]float64, n)
		for si, env := range schedule {
			fleet.MeasureFleetInto(got, env)
			for d := range devs {
				row := got[d*n : (d+1)*n]
				devs[d].arr.MeasureIntoWith(want, env, devs[d].nm)
				for i := range want {
					if row[i] != want[i] {
						t.Fatalf("window=%v step %d device %d osc %d: fleet %v, single-device %v",
							windowUS, si, d, i, row[i], want[i])
					}
				}
			}
		}
		if fleet.Sweep() != uint64(len(schedule)) {
			t.Fatalf("fleet sweep counter %d after %d sweeps", fleet.Sweep(), len(schedule))
		}
	}
}

// TestFleetManufactureMatchesNewArray pins fleet rows at manufacture
// time: component matrices row d must be the NewArray components for
// the same seed, and the noise key must be the Uint64 NewNoise would
// have drawn next.
func TestFleetManufactureMatchesNewArray(t *testing.T) {
	cfg := fleetTestConfig(0)
	n := cfg.Rows * cfg.Cols
	seeds := []uint64{7, 8, 9}
	fleet := NewFleet(cfg, seeds)
	for d, seed := range seeds {
		src := rng.New(seed)
		arr := NewArray(cfg, src)
		key := src.Uint64()
		for i := 0; i < n; i++ {
			if fleet.base[d*n+i] != arr.base[i] ||
				fleet.systematic[d*n+i] != arr.systematic[i] ||
				fleet.random[d*n+i] != arr.random[i] ||
				fleet.tempCoef[d*n+i] != arr.tempCoef[i] {
				t.Fatalf("device %d osc %d: fleet components diverge from NewArray", d, i)
			}
		}
		if fleet.keys[d] != key {
			t.Fatalf("device %d: fleet key %#x, NewNoise key %#x", d, fleet.keys[d], key)
		}
	}
}

// TestMeasureFleetIntoAllocFree is the steady-state fence: re-measuring
// an existing fleet allocates nothing, including across environment
// changes (the true-frequency cache rebuilds in place).
func TestMeasureFleetIntoAllocFree(t *testing.T) {
	cfg := fleetTestConfig(50)
	fleet := NewFleet(cfg, []uint64{1, 2, 3, 4})
	dst := make([]float64, fleet.Devices()*fleet.NumOsc())
	envA, envB := cfg.NominalEnv(), Environment{TempC: 80, VoltageV: 1.1}
	fleet.MeasureFleetInto(dst, envA) // warm the cache

	if allocs := testing.AllocsPerRun(100, func() {
		fleet.MeasureFleetInto(dst, envA)
	}); allocs != 0 {
		t.Fatalf("steady-state MeasureFleetInto allocates %v/run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		fleet.MeasureFleetInto(dst, envA)
		fleet.MeasureFleetInto(dst, envB) // forces a cache rebuild per run
	}); allocs != 0 {
		t.Fatalf("environment-change MeasureFleetInto allocates %v/run, want 0", allocs)
	}
}

// TestRemanufacturedMatchesNewArray pins the pool remanufacture path:
// re-drawing an existing array is bit-identical to NewArray — same
// components, same source consumption afterward — and preserves pointer
// identity when the size matches.
func TestRemanufacturedMatchesNewArray(t *testing.T) {
	cfg := fleetTestConfig(0)
	srcFresh, srcReuse := rng.New(5), rng.New(5)
	fresh := NewArray(cfg, srcFresh)
	prev := NewArray(cfg, rng.New(999))
	re := prev.Remanufactured(cfg, srcReuse)
	if re != prev {
		t.Fatalf("same-size Remanufactured did not reuse the receiver")
	}
	for i := 0; i < fresh.N(); i++ {
		if re.base[i] != fresh.base[i] || re.systematic[i] != fresh.systematic[i] ||
			re.random[i] != fresh.random[i] || re.tempCoef[i] != fresh.tempCoef[i] {
			t.Fatalf("osc %d: Remanufactured components diverge from NewArray", i)
		}
	}
	if a, b := srcFresh.Uint64(), srcReuse.Uint64(); a != b {
		t.Fatalf("source state diverges after remanufacture: %#x vs %#x", a, b)
	}

	// Size change and nil receiver both fall back to fresh manufacture.
	small := DefaultConfig(2, 2)
	small.Noise = NoiseCounter
	if got := re.Remanufactured(small, rng.New(5)); got == re || got.N() != 4 {
		t.Fatalf("size-changing Remanufactured did not fall back to NewArray")
	}
	var nilArr *Array
	if got := nilArr.Remanufactured(cfg, rng.New(5)); got == nil || got.N() != cfg.Rows*cfg.Cols {
		t.Fatalf("nil-receiver Remanufactured did not manufacture")
	}
}

// fleetBenchDevices is the fleet size of the CI fleet-bench smoke and of
// the README's fleet-vs-per-device comparison.
const fleetBenchDevices = 256

// BenchmarkFleetSweep measures the steady-state batched path: one full
// fleet measurement sweep per op, 256 devices of 8x16 oscillators.
func BenchmarkFleetSweep(b *testing.B) {
	cfg := fleetTestConfig(50)
	seeds := make([]uint64, fleetBenchDevices)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	fleet := NewFleet(cfg, seeds)
	dst := make([]float64, fleet.Devices()*fleet.NumOsc())
	env := cfg.NominalEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleet.MeasureFleetInto(dst, env)
	}
	b.ReportMetric(float64(fleetBenchDevices)*float64(b.N)/b.Elapsed().Seconds(), "devices/s")
}

// BenchmarkPerDeviceSweep measures the loop Fleet replaces: per device,
// manufacture an Array and measure one sweep — exactly what a
// per-seed campaign task does today.
func BenchmarkPerDeviceSweep(b *testing.B) {
	cfg := fleetTestConfig(50)
	env := cfg.NominalEnv()
	dst := make([]float64, cfg.Rows*cfg.Cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d < fleetBenchDevices; d++ {
			src := rng.New(uint64(d + 1))
			arr := NewArray(cfg, src)
			nm := arr.NewNoise(src)
			arr.MeasureIntoWith(dst, env, nm)
		}
	}
	b.ReportMetric(float64(fleetBenchDevices)*float64(b.N)/b.Elapsed().Seconds(), "devices/s")
}
