package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"

	"repro/internal/attack"
)

// TestMain lets the test binary stand in for the benchmark executable
// in the set-up processes the workloads start.
func TestMain(m *testing.M) {
	if setupChild() {
		return
	}
	os.Exit(m.Run())
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames fails unless res emits exactly the declared metrics, each
// under a valid name, with the declared unit.
func checkNames(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	for name, m := range res.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q", name)
		}
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("metric %q is not in BENCHMARK.json", name)
		case unit != m.Unit:
			t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	var missing []string
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("metrics not emitted: %v", missing)
	}
}

func quickRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := run(context.Background(), config{
		workload: workload, seed: 5, trace: trace, out: t.TempDir(), quick: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d failed", workload, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func TestQuickWorkloads(t *testing.T) {
	endToEnd, _ := declared(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := quickRun(t, w, false)
			checkNames(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestQuickLadder(t *testing.T) {
	_, perLayer := declared(t)
	res := quickRun(t, "attack-serial", true)
	checkNames(t, res, perLayer)
	if _, err := os.Stat(res.Info["spans"].(string)); err != nil {
		t.Errorf("span file: %v", err)
	}
}

func TestFleetSweepRepeats(t *testing.T) {
	a := quickRun(t, "fleet-sweep", false).Info["fleet_aggregates_sha256"]
	b := quickRun(t, "fleet-sweep", false).Info["fleet_aggregates_sha256"]
	if a != b || a == "" {
		t.Errorf("fleet-sweep aggregates differ between runs: %v vs %v", a, b)
	}
}

// The traced wrapper must present KeyBinder and Forker exactly when the
// device target does.
func TestTracedTargetInterfaces(t *testing.T) {
	rp := newReplayer()
	rec := newRecorder()
	for _, name := range attackNames {
		inner, err := rp.enroll(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		outer := wrapTarget(inner, rec, -1, -1, new(targetStats))
		_, ib := inner.(attack.KeyBinder)
		_, ob := outer.(attack.KeyBinder)
		_, iff := inner.(attack.Forker)
		_, of := outer.(attack.Forker)
		if ib != ob || iff != of {
			t.Errorf("%s: inner binder/forker %v/%v, traced %v/%v", name, ib, iff, ob, of)
		}
	}
}
