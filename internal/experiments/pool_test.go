package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/rng"
	"repro/internal/transcript"
)

// TestPooledCampaignMatchesFreshAttacks pins the end-to-end device-pool
// determinism contract at the experiments layer: a campaign run (which
// installs per-worker device pools, so every seed after a worker's
// first reuses a warm device carcass) reports exactly the metrics of a
// fresh, unpooled RunAttack per seed.
func TestPooledCampaignMatchesFreshAttacks(t *testing.T) {
	ctx := context.Background()
	const base, seeds = 5, 4
	res, err := campaign.Run(ctx, campaign.Spec{
		Task: "masking-attack", BaseSeed: base, Seeds: seeds, Workers: 3,
		Options: campaign.Options{Noise: "counter"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outcomes {
		seed := rng.StreamSeed(base, uint64(i))
		fresh, err := RunAttack(ctx, transcript.Spec{Attack: "masking", Seed: seed, Noise: "counter"})
		if err != nil {
			t.Fatalf("seed %d fresh: %v", seed, err)
		}
		if got, want := out.Metrics["recovered"], campaign.Bool(fresh.Recovered); got != want {
			t.Fatalf("seed %d: pooled recovered=%v fresh=%v", seed, got, want)
		}
		if got, want := out.Metrics["oracle-queries"], float64(fresh.Queries); got != want {
			t.Fatalf("seed %d: pooled queries=%v fresh=%v", seed, got, want)
		}
		if got, want := out.Metrics["key-bits"], float64(fresh.EnrolledKeyBits); got != want {
			t.Fatalf("seed %d: pooled key-bits=%v fresh=%v", seed, got, want)
		}
	}
}

// TestFleetSweepTaskWorkerInvariance runs the fleet-sweep task across
// worker counts: per-seed fleets are pure functions of the seed, and the
// pooled scratch matrix must not leak state between instances.
func TestFleetSweepTaskWorkerInvariance(t *testing.T) {
	run := func(workers int) []campaign.Outcome {
		res, err := campaign.Run(context.Background(), campaign.Spec{
			Task: "fleet-sweep", BaseSeed: 11, Seeds: 6, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outcomes
	}
	serial := run(1)
	if !reflect.DeepEqual(serial, run(4)) {
		t.Fatal("fleet-sweep outcomes diverge across worker counts")
	}
	m := serial[0].Metrics
	if m["devices"] != 64 || m["sweeps"] != 9 {
		t.Fatalf("fleet-sweep shape metrics off: %+v", m)
	}
	if m["device-spread-MHz"] <= 0 {
		t.Fatalf("fleet-sweep reports no process variation: %+v", m)
	}
}

// TestCampaignAllocationCeiling pins the allocations of one pooled
// seqpair-attack campaign. Workers=1 makes the count exact: one worker
// pool, warmed by the first seed and reused by the other fifteen.
func TestCampaignAllocationCeiling(t *testing.T) {
	ctx := context.Background()
	spec := campaign.Spec{Task: "seqpair-attack", BaseSeed: 1, Seeds: 16, Workers: 1}
	got := testing.AllocsPerRun(3, func() {
		if _, err := campaign.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	// Measured now: ~9,200.
	if got > 12800 {
		t.Fatalf("seqpair-attack campaign (16 seeds) allocates %.0f, ceiling 12800", got)
	}
}
