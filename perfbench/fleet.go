package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"

	"repro/internal/campaign"
)

// fleetSeedsPerCall is the task instances of one fleet-sweep call.
const fleetSeedsPerCall = 16

// fleetSpec is one fleet-sweep call: seeds task instances of 64 devices
// each on one worker.
func fleetSpec(base uint64, seeds int) campaign.Spec {
	return campaign.Spec{Task: "fleet-sweep", BaseSeed: base, Seeds: seeds, Workers: 1}
}

// fleetRun runs one fleet-sweep campaign and returns its JSON encoding
// and the device sweeps it performed. Every call manufactures its
// fleets afresh, so the sweeps include manufacture.
func fleetRun(ctx context.Context, spec campaign.Spec) ([]byte, float64, error) {
	res, err := campaign.Run(ctx, spec)
	if err != nil {
		return nil, 0, err
	}
	var sweeps float64
	for _, o := range res.Outcomes {
		sweeps += o.Metrics["devices"] * o.Metrics["sweeps"]
	}
	blob, err := json.Marshal(res)
	return blob, sweeps, err
}

// runFleetSweep is the fleet-sweep workload: a fixed cycle of
// fleet-sweep campaigns, repeated until the time is up. Every call's
// aggregates must equal the first call of the same spec and a fresh
// reference run after timing.
func runFleetSweep(ctx context.Context, cfg config, r *result) error {
	bases := seedsFrom(cfg.seed, streamFleet, cfg.sizes(16, 2))

	// Set-up: a fresh process makes its first fleet call (registry
	// lookup, pool, the first fleets' manufacture and sweeps).
	warm := seedsFrom(setupSeed, streamWarm, 1)[0]
	su := &setups{cfg: cfg, arg: func(int) (string, error) { return strconv.FormatUint(warm, 10), nil }}

	first := make([][]byte, len(bases))
	ls, err := closedLoop(cfg, len(bases), func(i int) float64 {
		blob, sweeps, err := fleetRun(ctx, fleetSpec(bases[i], fleetSeedsPerCall))
		if err != nil {
			r.check(false, "fleet-sweep base %#x: %v", bases[i], err)
			return 0
		}
		if first[i] == nil {
			first[i] = blob
		}
		r.check(bytes.Equal(blob, first[i]), "fleet-sweep base %#x: aggregates differ from the first call", bases[i])
		return sweeps
	}, su)
	if err != nil {
		return err
	}

	// Reference: a fresh run of every spec the loop used.
	digest := sha256.New()
	for i, base := range bases {
		if first[i] == nil {
			continue
		}
		blob, _, err := fleetRun(ctx, fleetSpec(base, fleetSeedsPerCall))
		r.check(err == nil && bytes.Equal(blob, first[i]), "fleet-sweep base %#x: reference run differs (%v)", base, err)
		digest.Write(blob)
	}
	// The digest lets two runs with one seed be compared byte for byte.
	r.Info["fleet_aggregates_sha256"] = hex.EncodeToString(digest.Sum(nil))

	ls.report(r, su)
	r.set("success_rate", "ratio", float64(r.Attempted-r.Failed)/float64(r.Attempted))
	return nil
}
