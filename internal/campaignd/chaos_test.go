package campaignd

// The chaos suite drives the daemon through seeded fault schedules —
// injected task panics, shard errors, delays, checkpoint write/fsync
// failures — and holds it to the robustness contract: under ANY
// schedule the job either completes with final aggregates byte-identical
// to a fault-free campaign.Run, or terminates in a distinct
// failed/quarantined state naming the offending shards. Never a daemon
// crash, never a silent hang, never a silently wrong result. Faults are
// pure functions of (fault seed, injection point, invocation index), so
// a failing schedule reproduces from its seed; CI runs the suite under
// -race with extra seeds (CHAOS_SEEDS).

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultinject"
)

// chaosSeeds is how many fault schedules the mixed suite sweeps;
// CHAOS_SEEDS raises it in CI.
func chaosSeeds(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("CHAOS_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SEEDS %q", v)
		}
		return n
	}
	return 6
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fastRetries keeps the chaos sweeps quick without changing semantics.
func fastRetries(opts Options) Options {
	opts.RetryBackoff = time.Millisecond
	opts.RetryMaxBackoff = 4 * time.Millisecond
	opts.CheckpointBackoff = time.Millisecond
	return opts
}

func TestChaosSeededFaultSchedules(t *testing.T) {
	defer faultinject.Disable()
	spec := Spec{Task: "campaignd-test-walk", BaseSeed: 2024, Seeds: 24, Workers: 3}
	oneShot, err := campaign.Run(context.Background(), spec.campaignSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, oneShot)

	seeds := chaosSeeds(t)
	var dones, quarantines int
	for fs := uint64(1); fs <= uint64(seeds); fs++ {
		// After: 1 on the checkpoint points spares the spec record so
		// Submit itself succeeds; everything after it is fair game.
		plan := faultinject.Plan{Seed: fs, Rules: []faultinject.Rule{
			{Point: "shard.run", PErr: 0.2, PPanic: 0.1, PDelay: 0.1, Delay: 2 * time.Millisecond},
			{Point: "checkpoint.append", PErr: 0.15, After: 1},
			{Point: "checkpoint.fsync", PErr: 0.15, After: 1},
		}}
		if err := faultinject.Enable(plan); err != nil {
			t.Fatal(err)
		}
		m := newTestManager(t, fastRetries(Options{ShardSize: 2}))
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("fault seed %d: submit: %v", fs, err)
		}
		final := waitTerminal(t, m, st.ID)
		stats := faultinject.Stats()
		faultinject.Disable()
		m.Close()

		switch final.State {
		case StateDone:
			dones++
			if got := resultJSON(t, final.Result); got != want {
				t.Fatalf("fault seed %d: surviving run differs from fault-free run:\n%s\nvs\n%s", fs, got, want)
			}
		case StateQuarantined:
			quarantines++
			if len(final.Quarantined) == 0 {
				t.Fatalf("fault seed %d: quarantined without shard list", fs)
			}
			for _, s := range final.Quarantined {
				if s < 0 || s >= final.ShardsTotal {
					t.Fatalf("fault seed %d: quarantined shard %d out of range", fs, s)
				}
				if !strings.Contains(final.Error, "shard "+strconv.Itoa(s)+":") {
					t.Fatalf("fault seed %d: error does not name shard %d: %q", fs, s, final.Error)
				}
			}
			if final.Result != nil {
				t.Fatalf("fault seed %d: quarantined job published a result", fs)
			}
		default:
			t.Fatalf("fault seed %d: terminal state %s (%s) — the contract allows only done or quarantined here",
				fs, final.State, final.Error)
		}
		t.Logf("fault seed %d: %s (shard.run %+v)", fs, final.State, stats["shard.run"])
	}
	t.Logf("chaos sweep: %d done (byte-identical), %d quarantined over %d schedules", dones, quarantines, seeds)
}

// A task panic on every attempt must quarantine every shard — and,
// foremost, must not kill the process. Before this harness existed a
// single panicking task tore down the daemon; this test is the
// regression fence.
func TestChaosPanicIsolation(t *testing.T) {
	defer faultinject.Disable()
	if err := faultinject.Enable(faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Point: "shard.run", PPanic: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, fastRetries(Options{ShardSize: 4}))
	st, err := m.Submit(Spec{Task: "campaignd-test-walk", BaseSeed: 3, Seeds: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	faultinject.Disable()
	if final.State != StateQuarantined {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	if len(final.Quarantined) != final.ShardsTotal {
		t.Fatalf("quarantined %d of %d shards", len(final.Quarantined), final.ShardsTotal)
	}
	if !strings.Contains(final.Error, "panic") {
		t.Fatalf("quarantine error does not surface the panic: %q", final.Error)
	}
	if m.counters.panicsRecovered.Load() == 0 {
		t.Fatal("panic recovery counter untouched")
	}
	// The daemon survived (we are still here) and still takes work.
	st2, err := m.Submit(Spec{Task: "campaignd-test-walk", BaseSeed: 4, Seeds: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if after := waitTerminal(t, m, st2.ID); after.State != StateDone {
		t.Fatalf("post-panic job: %s (%s)", after.State, after.Error)
	}
}

// Persistent checkpoint failure degrades durability, not correctness:
// the job completes with a byte-identical result held in memory,
// /healthz flips to degraded (503), and the loss is visible on
// /metrics. A restart would re-run the lost shards deterministically.
func TestChaosCheckpointDegradation(t *testing.T) {
	defer faultinject.Disable()
	spec := Spec{Task: "campaignd-test-walk", BaseSeed: 77, Seeds: 12, Workers: 2}
	oneShot, err := campaign.Run(context.Background(), spec.campaignSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Spare the spec record (append+fsync once each), fail everything after.
	if err := faultinject.Enable(faultinject.Plan{Seed: 9, Rules: []faultinject.Rule{
		{Point: "checkpoint.fsync", PErr: 1, After: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, fastRetries(Options{ShardSize: 3}))
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	faultinject.Disable()
	if final.State != StateDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	if got, want := resultJSON(t, final.Result), resultJSON(t, oneShot); got != want {
		t.Fatalf("degraded run altered the result:\n%s\nvs\n%s", got, want)
	}
	h := m.Health()
	if !h.Degraded || h.LostDurabilityShards != 4 || h.CheckpointErrors == 0 {
		t.Fatalf("health %+v", h)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("healthz %s: %q", resp.Status, body)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readBody(t, mresp)
	for _, want := range []string{
		"campaignd_checkpoint_errors_total",
		"campaignd_lost_durability_shards_total 4",
		"campaignd_degraded 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, metrics)
		}
	}
}

// The http.accept injection point fails requests at the front door with
// 503 — the shape a client's retry backoff must absorb.
func TestChaosHTTPAcceptFault(t *testing.T) {
	defer faultinject.Disable()
	m := newTestManager(t, Options{})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	if err := faultinject.Enable(faultinject.Plan{Seed: 2, Rules: []faultinject.Rule{
		{Point: "http.accept", PErr: 1, Limit: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected accept fault answered %s", resp.Status)
	}
	// Limit spent: the next request sails through.
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp2); resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-limit request answered %s", resp2.Status)
	}
}

// Transient shard faults (bounded by Limit) must be absorbed by retry
// alone: the job completes byte-identically with zero quarantines.
func TestChaosTransientFaultsRetryToIdentical(t *testing.T) {
	defer faultinject.Disable()
	spec := Spec{Task: "campaignd-test-walk", BaseSeed: 555, Seeds: 20, Workers: 2}
	oneShot, err := campaign.Run(context.Background(), spec.campaignSpec())
	if err != nil {
		t.Fatal(err)
	}
	// One error and one panic, then clean: every shard recovers within
	// the 3-attempt budget.
	if err := faultinject.Enable(faultinject.Plan{Seed: 31, Rules: []faultinject.Rule{
		{Point: "shard.run", PErr: 0.5, PPanic: 0.5, Limit: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, fastRetries(Options{ShardSize: 2}))
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	faultinject.Disable()
	if final.State != StateDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	if got, want := resultJSON(t, final.Result), resultJSON(t, oneShot); got != want {
		t.Fatalf("retried run differs from fault-free run:\n%s\nvs\n%s", got, want)
	}
	if m.counters.shardRetries.Load() == 0 {
		t.Fatal("no retries recorded — the plan never fired")
	}
	if m.counters.shardsQuarantined.Load() != 0 {
		t.Fatal("transient faults escalated to quarantine")
	}
}
