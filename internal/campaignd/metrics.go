package campaignd

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
)

// counters are the daemon-lifetime monotonic counters surfaced on
// /metrics. Per-job gauges are derived from the job table at scrape
// time rather than stored.
type counters struct {
	jobsSubmitted        atomic.Int64
	jobsRecovered        atomic.Int64
	jobsResumed          atomic.Int64
	shardsCompleted      atomic.Int64
	seedsCompleted       atomic.Int64
	checkpointBytes      atomic.Int64
	httpRequests         atomic.Int64
	shardRetries         atomic.Int64
	shardsQuarantined    atomic.Int64
	panicsRecovered      atomic.Int64
	checkpointErrors     atomic.Int64
	lostDurabilityShards atomic.Int64
}

// handleMetrics renders the Prometheus text exposition format by hand —
// the repository takes no dependencies, and the format is one line per
// sample.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	c := &s.m.counters
	fmt.Fprintf(w, "# TYPE campaignd_jobs_submitted_total counter\n")
	fmt.Fprintf(w, "campaignd_jobs_submitted_total %d\n", c.jobsSubmitted.Load())
	fmt.Fprintf(w, "# TYPE campaignd_jobs_recovered_total counter\n")
	fmt.Fprintf(w, "campaignd_jobs_recovered_total %d\n", c.jobsRecovered.Load())
	fmt.Fprintf(w, "# TYPE campaignd_jobs_resumed_total counter\n")
	fmt.Fprintf(w, "campaignd_jobs_resumed_total %d\n", c.jobsResumed.Load())
	fmt.Fprintf(w, "# TYPE campaignd_shards_completed_total counter\n")
	fmt.Fprintf(w, "campaignd_shards_completed_total %d\n", c.shardsCompleted.Load())
	fmt.Fprintf(w, "# TYPE campaignd_seeds_completed_total counter\n")
	fmt.Fprintf(w, "campaignd_seeds_completed_total %d\n", c.seedsCompleted.Load())
	fmt.Fprintf(w, "# TYPE campaignd_checkpoint_bytes_total counter\n")
	fmt.Fprintf(w, "campaignd_checkpoint_bytes_total %d\n", c.checkpointBytes.Load())
	fmt.Fprintf(w, "# TYPE campaignd_http_requests_total counter\n")
	fmt.Fprintf(w, "campaignd_http_requests_total %d\n", c.httpRequests.Load())
	fmt.Fprintf(w, "# TYPE campaignd_shard_retries_total counter\n")
	fmt.Fprintf(w, "campaignd_shard_retries_total %d\n", c.shardRetries.Load())
	fmt.Fprintf(w, "# TYPE campaignd_shards_quarantined_total counter\n")
	fmt.Fprintf(w, "campaignd_shards_quarantined_total %d\n", c.shardsQuarantined.Load())
	fmt.Fprintf(w, "# TYPE campaignd_panics_recovered_total counter\n")
	fmt.Fprintf(w, "campaignd_panics_recovered_total %d\n", c.panicsRecovered.Load())
	fmt.Fprintf(w, "# TYPE campaignd_checkpoint_errors_total counter\n")
	fmt.Fprintf(w, "campaignd_checkpoint_errors_total %d\n", c.checkpointErrors.Load())
	fmt.Fprintf(w, "# TYPE campaignd_lost_durability_shards_total counter\n")
	fmt.Fprintf(w, "campaignd_lost_durability_shards_total %d\n", c.lostDurabilityShards.Load())

	h := s.m.Health()
	fmt.Fprintf(w, "# TYPE campaignd_degraded gauge\n")
	fmt.Fprintf(w, "campaignd_degraded %d\n", b2i(h.Degraded))
	fmt.Fprintf(w, "# TYPE campaignd_draining gauge\n")
	fmt.Fprintf(w, "campaignd_draining %d\n", b2i(h.Draining))

	jobs := s.m.List()
	byState := make(map[State]int)
	for _, j := range jobs {
		byState[j.State]++
	}
	fmt.Fprintf(w, "# TYPE campaignd_jobs gauge\n")
	for _, st := range []State{StateRunning, StateDone, StateFailed, StateCancelled, StateQuarantined} {
		fmt.Fprintf(w, "campaignd_jobs{state=%q} %d\n", st, byState[st])
	}

	// Per-job progress gauges, sorted by id for a stable scrape.
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	fmt.Fprintf(w, "# TYPE campaignd_job_shards_done gauge\n")
	for _, j := range jobs {
		fmt.Fprintf(w, "campaignd_job_shards_done{job=%q,task=%q} %d\n", j.ID, j.Spec.Task, j.ShardsDone)
	}
	fmt.Fprintf(w, "# TYPE campaignd_job_shards_total gauge\n")
	for _, j := range jobs {
		fmt.Fprintf(w, "campaignd_job_shards_total{job=%q,task=%q} %d\n", j.ID, j.Spec.Task, j.ShardsTotal)
	}
	fmt.Fprintf(w, "# TYPE campaignd_job_seeds_done gauge\n")
	for _, j := range jobs {
		fmt.Fprintf(w, "campaignd_job_seeds_done{job=%q,task=%q} %d\n", j.ID, j.Spec.Task, j.SeedsDone)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
