// Measurement noise. Every frequency measurement adds a standard
// Gaussian variate per oscillator scaled by Config.NoiseSigmaMHz; HOW
// those variates are produced is a determinism contract of its own, and
// this file pins the one contract the repository supports: counter
// mode. Each variate is keyed by the identity triple (noise seed,
// measurement sweep counter, oscillator index) through the
// counter-block generator of rng.BlockNorm. There is no stream to keep
// aligned, so subset measurement draws exactly the k variates it needs
// (genuinely O(k)), forked oracles are independent by key instead of by
// stream replay, and per-sweep noise is embarrassingly parallel.
// Transcripts are pinned by the *_counter.json goldens.
//
// A Noise instance carries the per-oracle sweep counter and is NOT safe
// for concurrent use; forked devices construct their own via
// Array.NewNoise.
package silicon

import (
	"fmt"

	"repro/internal/rng"
)

// NoiseModelKind names a noise determinism contract. NoiseCounter is
// the only one; configs and specs still carry the kind so that every
// recorded model name stays explicit.
type NoiseModelKind int

// NoiseCounter keys each variate by (seed, sweep, oscillator). It is
// the zero value, so no config has to set it.
const NoiseCounter NoiseModelKind = 0

// String implements fmt.Stringer.
func (k NoiseModelKind) String() string {
	if k == NoiseCounter {
		return "counter"
	}
	return fmt.Sprintf("NoiseModelKind(%d)", int(k))
}

// ParseNoiseModel resolves a CLI/task-option model name: "" and
// "counter" both name the counter model, every other name is an error.
func ParseNoiseModel(s string) (NoiseModelKind, error) {
	if s == "" || s == "counter" {
		return NoiseCounter, nil
	}
	return 0, fmt.Errorf("silicon: unknown noise model %q (have counter)", s)
}

// Noise produces the standard Gaussian variates of frequency
// measurements. Every variate derives from (key, sweep, index) via
// rng.BlockNorm; its only mutable state is the sweep counter. Each fill
// is one measurement sweep and advances the counter, so two sweeps
// never share noise.
type Noise struct {
	key   uint64
	sweep uint64
}

// NewNoise builds the per-oracle noise state of the array: the key is
// src's next Uint64, and src is never touched again.
func (a *Array) NewNoise(src *rng.Source) *Noise { return &Noise{key: src.Uint64()} }

// fill writes one variate per oscillator (len(dst) = N).
func (nm *Noise) fill(dst []float64) {
	sw := rng.NewBlockSweep(nm.key, nm.sweep)
	nm.sweep++
	sw.FillNorm(dst)
}

// fillIndices writes the variates of the listed oscillators into dst
// (len(dst) = N; idxs ascending), drawing only len(idxs) of them;
// entries outside idxs are left as they were.
func (nm *Noise) fillIndices(dst []float64, idxs []int) {
	sw := rng.NewBlockSweep(nm.key, nm.sweep)
	nm.sweep++
	// A subset that is in fact the whole array (seqpair and tempco
	// helpers reference every oscillator) takes the branch-free bulk
	// fill; values are identical either way.
	if len(idxs) == len(dst) {
		sw.FillNorm(dst)
		return
	}
	for j := 0; j < len(idxs); j++ {
		i := idxs[j]
		// Neighbor oscillators dominate the helper-referenced subsets
		// (chain pairings), so an even/odd run shares one polar block
		// exactly as the dense fill does.
		if i&1 == 0 && j+1 < len(idxs) && idxs[j+1] == i+1 {
			dst[i], dst[i+1] = sw.NormPair(uint64(i) >> 1)
			j++
			continue
		}
		dst[i] = sw.Norm(uint64(i))
	}
}
