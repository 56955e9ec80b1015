package attack

import (
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tempco"
)

// refBits extracts ground-truth reference bits (low-temperature side)
// from the silicon.
func refBits(d *device.TempCoDevice) func(int) bool {
	arr := d.Array()
	p := d.Params()
	h := d.ReadHelper()
	env := silicon.Environment{TempC: p.TminC, VoltageV: arr.Config().NominalVoltageV}
	return func(i int) bool {
		return arr.PairDeltaF(h.Pairs[i].Pair.A, h.Pairs[i].Pair.B, env) > 0
	}
}

func TestDeterministicSelectionLeaksForFree(t *testing.T) {
	// Devices enrolled with first-fit selection leak correct inequality
	// constraints through their helper data alone — zero queries.
	p := tempcoParams()
	p.Policy = tempco.DeterministicSelection
	totalConstraints, correct := 0, 0
	for seed := uint64(0); seed < 8; seed++ {
		d, err := device.EnrollTempCoReuse(nil, p, rng.New(seed*100+1), rng.New(seed*100+2))
		if err != nil {
			t.Fatal(err)
		}
		bit := refBits(d)
		cons := AnalyzeDeterministicSelectionLeakage(d.ReadHelper())
		for _, c := range cons {
			totalConstraints++
			if (bit(c.PairA) != bit(c.PairB)) == c.Differ {
				correct++
			}
		}
		if d.Queries() != 0 {
			t.Fatal("leakage analysis consumed oracle queries")
		}
	}
	if totalConstraints == 0 {
		t.Skip("no constraints extractable on these instances")
	}
	if correct != totalConstraints {
		t.Fatalf("deterministic selection: %d/%d constraints correct, want all",
			correct, totalConstraints)
	}
	t.Logf("extracted %d correct bit relations from helper data alone", totalConstraints)
}

func TestRandomSelectionDefeatsTheLeakage(t *testing.T) {
	// With randomized selection the same scan yields constraints that
	// are substantially wrong — the paper's recommended fix works.
	p := tempcoParams()
	p.Policy = tempco.RandomSelection
	totalConstraints, correct := 0, 0
	for seed := uint64(0); seed < 12; seed++ {
		d, err := device.EnrollTempCoReuse(nil, p, rng.New(seed*100+1), rng.New(seed*100+2))
		if err != nil {
			t.Fatal(err)
		}
		bit := refBits(d)
		for _, c := range AnalyzeDeterministicSelectionLeakage(d.ReadHelper()) {
			totalConstraints++
			if (bit(c.PairA) != bit(c.PairB)) == c.Differ {
				correct++
			}
		}
	}
	if totalConstraints < 10 {
		t.Skip("too few pseudo-constraints to judge")
	}
	frac := float64(correct) / float64(totalConstraints)
	if frac > 0.85 {
		t.Fatalf("random selection still leaks: %.2f of pseudo-constraints hold", frac)
	}
	t.Logf("random selection: only %.2f of pseudo-constraints hold (%d/%d)", frac, correct, totalConstraints)
}
