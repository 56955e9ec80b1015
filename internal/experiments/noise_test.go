package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestCampaignNoiseOptionRejectsUnknown pins the error path for a typo'd
// model name and for the retired sequential-stream model, on a task
// that hands the option to the transcript harness and on one that
// validates it itself.
func TestCampaignNoiseOptionRejectsUnknown(t *testing.T) {
	for _, task := range []string{"seqpair-attack", "attack-success"} {
		for _, noise := range []string{"quantum", "stream"} {
			_, err := campaign.Run(context.Background(), campaign.Spec{
				Task: task, BaseSeed: 1, Seeds: 1,
				Options: campaign.Options{Noise: noise},
			})
			if err == nil || !strings.Contains(err.Error(), "unknown noise model") {
				t.Fatalf("%s noise %q: err = %v, want unknown noise model", task, noise, err)
			}
		}
	}
}

// TestRunAttacksCounterRecover is the end-to-end counter-mode soundness
// check across all five attacks on one device population.
func TestRunAttacksCounterRecover(t *testing.T) {
	o, err := attackAllOnSeed(context.Background(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !o.seqPair || !o.groupBased || !o.masking || !o.chain {
		t.Fatalf("counter-mode recovery failed: %+v", o)
	}
	if o.relFound == 0 || o.relRight != o.relFound {
		t.Fatalf("counter-mode tempco relations: %d/%d", o.relRight, o.relFound)
	}
}
