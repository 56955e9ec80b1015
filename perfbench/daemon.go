package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaignd"
	"repro/internal/rng"
)

// daemon is an in-process campaignd serving its HTTP API on a loopback
// listener, with the one client the workload drives it through.
type daemon struct {
	mgr     *campaignd.Manager
	srv     *http.Server
	url     string
	client  *http.Client
	served  chan error
	recover time.Duration
}

// startDaemon starts campaignd over dir the way puf-campaignd does —
// New, Recover, then serve — and returns once /healthz answers.
func startDaemon(dir string) (*daemon, error) {
	mgr, err := campaignd.New(campaignd.Options{StateDir: dir})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := mgr.Recover(); err != nil {
		mgr.Close()
		return nil, err
	}
	recoverDur := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	d := &daemon{
		mgr:     mgr,
		srv:     &http.Server{Handler: campaignd.NewServer(mgr)},
		url:     "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{}},
		served:  make(chan error, 1),
		recover: recoverDur,
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the server down, waits for it, and closes the manager.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if d.srv.Shutdown(ctx) != nil {
		d.srv.Close()
	}
	<-d.served
	d.client.CloseIdleConnections()
	d.mgr.Close()
}

// jobRun is one campaign as the client saw it.
type jobRun struct {
	submit     time.Duration // POST round trip
	firstEvent time.Duration // POST to the first event with a finished shard
	total      time.Duration // POST to the final result
	events     int
	// durable[k] is when the client first saw k+1 shards done: the
	// daemon publishes a shard only once its checkpoint is written.
	durable []time.Time
	result  []byte // compact JSON of the final campaign.Result
}

// runJob submits spec, follows its SSE stream to the terminal event,
// and fetches the final result.
func (d *daemon) runJob(spec campaignd.Spec) (jobRun, error) {
	var jr jobRun
	body, err := json.Marshal(spec)
	if err != nil {
		return jr, err
	}
	t0 := time.Now()
	var st campaignd.JobStatus
	if err := d.call(http.MethodPost, "/v1/campaigns", body, http.StatusCreated, &st); err != nil {
		return jr, fmt.Errorf("submit: %w", err)
	}
	jr.submit = time.Since(t0)

	resp, err := d.client.Get(d.url + "/v1/campaigns/" + st.ID + "/stream")
	if err != nil {
		return jr, fmt.Errorf("stream: %w", err)
	}
	var last campaignd.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &last); err != nil {
			resp.Body.Close()
			return jr, fmt.Errorf("stream event: %w", err)
		}
		jr.events++
		if jr.firstEvent == 0 && last.ShardsDone > 0 {
			jr.firstEvent = time.Since(t0)
		}
		for now := time.Now(); len(jr.durable) < last.ShardsDone; {
			jr.durable = append(jr.durable, now)
		}
	}
	err = sc.Err()
	resp.Body.Close()
	if err != nil {
		return jr, fmt.Errorf("stream: %w", err)
	}
	if last.State != campaignd.StateDone {
		return jr, fmt.Errorf("job %s ended %q: %s", st.ID, last.State, last.Error)
	}

	var detail struct {
		Result json.RawMessage `json:"result"`
	}
	if err := d.call(http.MethodGet, "/v1/campaigns/"+st.ID, nil, http.StatusOK, &detail); err != nil {
		return jr, fmt.Errorf("result: %w", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, detail.Result); err != nil {
		return jr, fmt.Errorf("result: %w", err)
	}
	jr.result = compact.Bytes()
	jr.total = time.Since(t0)
	return jr, nil
}

// call makes one JSON request and decodes the reply into out.
func (d *daemon) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// counter scrapes one unlabelled sample from /metrics.
func (d *daemon) counter(name string) (float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metrics: no sample %s", name)
}

// prepareHistory leaves completed attack-success jobs in dir, so every
// daemon start has checkpoint history to Recover. The history is the
// same in every run.
func prepareHistory(cfg config, dir string) error {
	mgr, err := campaignd.New(campaignd.Options{StateDir: dir})
	if err != nil {
		return err
	}
	defer mgr.Close()
	const seeds = 8
	bases, _ := admissibleBases(context.Background(), setupSeed, streamHistory, cfg.sizes(8, 1), seeds)
	for _, base := range bases {
		st, err := mgr.Submit(campaignd.Spec{Task: "attack-success", BaseSeed: base, Seeds: seeds,
			Workers: runtime.NumCPU(), Noise: "counter", ShardSize: 1})
		if err != nil {
			return err
		}
		events, release, err := mgr.Subscribe(st.ID)
		if err != nil {
			return err
		}
		var last campaignd.Event
		for ev := range events {
			last = ev
		}
		release()
		if last.State != campaignd.StateDone {
			return fmt.Errorf("history job %s ended %q", st.ID, last.State)
		}
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// startDaemons starts a daemon reps times, each over a fresh copy of
// the checkpoint history (the copy is not timed), and keeps the last
// one running. It returns each start's Recover time.
func startDaemons(history, dir string, reps int) (*daemon, []float64, error) {
	var recovers []float64
	var d *daemon
	for rep := 0; rep < reps; rep++ {
		state := filepath.Join(dir, fmt.Sprintf("state%d", rep))
		err := copyDir(history, state)
		var next *daemon
		if err == nil {
			next, err = startDaemon(state)
		}
		if d != nil {
			d.stop()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("daemon start: %w", err)
		}
		recovers = append(recovers, ms(next.recover))
		d = next
	}
	return d, recovers, nil
}

// admissibleBases draws campaign base seeds from one stream until n of
// them give seeds task instances that are all attackable (see
// admissibleSeeds), and reports how many it skipped.
func admissibleBases(ctx context.Context, seed, stream uint64, n, seeds int) (bases []uint64, skipped int) {
	pool := campaign.NewPool()
	base := rng.StreamSeed(seed, stream)
	for i := uint64(0); len(bases) < n; i++ {
		b := rng.StreamSeed(base, i)
		ok := true
		for k := 0; k < seeds && ok; k++ {
			ok = attackable(ctx, rng.StreamSeed(b, uint64(k)), pool)
		}
		if ok {
			bases = append(bases, b)
		} else {
			skipped++
		}
	}
	return bases, skipped
}

// jobSpecs is the fixed cycle of campaigns the client submits, and the
// number of base seeds skipped to find it.
func jobSpecs(ctx context.Context, cfg config, n, workers int) ([]campaignd.Spec, int) {
	seeds := cfg.sizes(8, 2)
	bases, skipped := admissibleBases(ctx, cfg.seed, streamJobs, n, seeds)
	specs := make([]campaignd.Spec, len(bases))
	for i, base := range bases {
		specs[i] = campaignd.Spec{Task: "attack-success", BaseSeed: base, Seeds: seeds,
			Workers: workers, Noise: "counter", ShardSize: 2}
	}
	return specs, skipped
}

// referenceRun is campaign.Run of the campaign a daemon spec describes.
func referenceRun(ctx context.Context, spec campaignd.Spec) (*campaign.Result, []byte, error) {
	res, err := campaign.Run(ctx, campaign.Spec{Task: spec.Task, BaseSeed: spec.BaseSeed, Seeds: spec.Seeds,
		Workers: spec.Workers, Options: campaign.Options{Noise: spec.Noise}})
	if err != nil {
		return nil, nil, err
	}
	blob, err := json.Marshal(res)
	return res, blob, err
}

// recoveries counts the attacks of an attack-success result that
// recovered: exact keys, and all relations right for tempco (the rule
// of recovered on attack-serial).
func recoveries(res *campaign.Result) int {
	n := 0
	for _, o := range res.Outcomes {
		for _, k := range []string{"seqpair-recovered", "groupbased-recovered", "masking-recovered", "chain-recovered"} {
			n += int(o.Metrics[k])
		}
		if o.Metrics["tempco-relation-accuracy"] == 1 {
			n++
		}
	}
	return n
}

// runDaemonCampaign is the daemon-campaign workload: one client submits
// a fixed cycle of attack-success campaigns to campaignd over HTTP,
// follows each over SSE and fetches its result, until the time is up.
// Every result must be byte-identical to campaign.Run of its spec.
func runDaemonCampaign(ctx context.Context, cfg config, r *result) error {
	workers := runtime.NumCPU()
	r.Workers = workers
	dir, err := os.MkdirTemp(cfg.out, "daemon-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	history := filepath.Join(dir, "history")
	if err := prepareHistory(cfg, history); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	// Set-up: a fresh process starts a daemon over a fresh copy of the
	// history (the copy is not timed).
	su := &setups{cfg: cfg, arg: func(rep int) (string, error) {
		state := filepath.Join(dir, fmt.Sprintf("setup%d", rep))
		return state, copyDir(history, state)
	}}
	d, _, err := startDaemons(history, dir, 1)
	if err != nil {
		return err
	}
	defer d.stop()

	specs, skipped := jobSpecs(ctx, cfg, cfg.sizes(16, 2), workers)
	r.Info["skipped_bases"] = skipped
	first := make([][]byte, len(specs))
	runs := make([]int, len(specs))
	ls, err := closedLoop(cfg, len(specs), func(i int) float64 {
		jr, err := d.runJob(specs[i])
		if err != nil {
			r.check(false, "campaign %#x: %v", specs[i].BaseSeed, err)
			return 0
		}
		runs[i]++
		if first[i] == nil {
			first[i] = jr.result
		}
		r.check(bytes.Equal(jr.result, first[i]), "campaign %#x: result differs from its first run", specs[i].BaseSeed)
		return float64(len(attackNames) * specs[i].Seeds)
	}, su)
	if err != nil {
		return err
	}

	attacks, wins := 0, 0
	for i, spec := range specs {
		if runs[i] == 0 {
			continue
		}
		ref, blob, err := referenceRun(ctx, spec)
		if err != nil {
			return fmt.Errorf("reference %#x: %w", spec.BaseSeed, err)
		}
		r.check(bytes.Equal(blob, first[i]), "campaign %#x: daemon result differs from campaign.Run", spec.BaseSeed)
		attacks += runs[i] * len(attackNames) * spec.Seeds
		wins += runs[i] * recoveries(ref)
	}
	ls.report(r, su)
	r.set("success_rate", "ratio", float64(wins)/float64(attacks))
	return nil
}
