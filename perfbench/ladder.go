package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/campaign"
	"repro/internal/campaignd"
	"repro/internal/ecc"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// runLadder is the traced run. Whatever --workload names, it measures
// the whole per-layer ladder: kernel replays of rng, silicon and ecc;
// the attack cycle through traced device targets; and traced daemon
// campaigns. Spans are kept in memory and written out at the end.
func runLadder(ctx context.Context, cfg config, r *result) error {
	rec := newRecorder()
	r.Workers = runtime.NumCPU()
	src := rng.New(seedsFrom(cfg.seed, streamKernels, 1)[0])
	reps := cfg.sizes(1, 0)
	replayRNG(rec, r, src, reps)
	replaySilicon(rec, r, src, reps)
	replayECC(rec, r, src, reps)

	layers, counts, err := traceAttacks(ctx, cfg, rec, r)
	if err != nil {
		return err
	}
	var traced, bare time.Duration
	var runs int
	var reads int
	var read time.Duration
	for _, name := range attackNames {
		l := layers[name]
		n := float64(l.runs)
		r.set("device.enroll_ms."+name, "ms", ms(l.enroll)/n)
		r.set("device.query_us."+name, "us", perCall(l.st.query, l.st.queries, time.Microsecond))
		r.set("device.write_us."+name, "us", perCall(l.st.write, l.st.writes, time.Microsecond))
		r.set("device.writes."+name, "count", float64(l.st.writes)/n)
		r.set("attack.run_ms."+name, "ms", ms(l.run)/n)
		r.set("attack.self_ms."+name, "ms", ms(l.self)/n)
		r.set("attack.queries."+name, "count", float64(l.queries)/n)
		traced += l.traced
		bare += l.bare
		runs += l.runs
		reads += l.st.reads
		read += l.st.read
	}
	r.set("device.read_us", "us", perCall(read, reads, time.Microsecond))
	r.set("attack.cycle_queries", "count", float64(counts[1].queries))
	r.set("attack.cycle_allocs", "count", float64(counts[1].mallocs))
	r.set("trace.attack_overhead_ms", "ms", ms(traced-bare)/float64(runs))
	r.Info["attack_cycle"] = map[string]any{
		"queries": [2]int{counts[0].queries, counts[1].queries},
		"writes":  [2]int{counts[0].writes, counts[1].writes},
		"allocs":  [2]uint64{counts[0].mallocs, counts[1].mallocs},
	}

	if err := traceDaemon(ctx, cfg, rec, r); err != nil {
		return err
	}
	path, err := writeSpans(cfg, rec, r.Workers)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.Info["spans"] = path
	return nil
}

func perCall(total time.Duration, calls int, unit time.Duration) float64 {
	if calls == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(calls)
}

// timeKernel runs fn n times inside one span and returns ns per call.
func timeKernel(rec *recorder, name string, n int, fn func(i int)) float64 {
	id := rec.begin(name, -1, -1)
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(rec.end(id)) / float64(n)
}

// ---------------------------------------------------------------- rng --

func replayRNG(rec *recorder, r *result, src *rng.Source, reps int) {
	const osc, devices = 128, 64
	calls := 2000 + 20000*reps
	key := src.Uint64()
	one := make([]float64, osc)
	ns := timeKernel(rec, "rng.fillnorm", calls, func(i int) {
		rng.NewBlockSweep(key, uint64(i)).FillNorm(one)
	})
	r.set("rng.fillnorm_ns_per_variate", "ns", ns/osc)
	r.set("rng.fillnorm_variates_per_call", "count", osc)

	keys := make([]uint64, devices)
	for i := range keys {
		keys[i] = src.Uint64()
	}
	rows := make([]float64, devices*osc)
	ns = timeKernel(rec, "rng.fillnormrows", calls/devices, func(i int) {
		rng.FillNormRows(rows, keys, uint64(i))
	})
	r.set("rng.fillnormrows_ns_per_variate", "ns", ns/float64(len(rows)))
	r.set("rng.fillnormrows_variates_per_call", "count", float64(len(rows)))
	// Writes every variate and reads every key once.
	r.set("rng.fillnormrows_bytes_per_call", "bytes-computed", float64(8*len(rows)+8*len(keys)))
}

// ------------------------------------------------------------ silicon --

func counterConfig(rows, cols int) silicon.Config {
	cfg := silicon.DefaultConfig(rows, cols)
	cfg.Noise = silicon.NoiseCounter
	return cfg
}

func replaySilicon(rec *recorder, r *result, src *rng.Source, reps int) {
	for _, shape := range [][2]int{{8, 16}, {4, 10}} {
		cfg := counterConfig(shape[0], shape[1])
		base := src.Uint64()
		ns := timeKernel(rec, fmt.Sprintf("silicon.manufacture.%dx%d", shape[0], shape[1]), 200+2000*reps, func(i int) {
			silicon.NewArray(cfg, rng.New(base+uint64(i)))
		})
		r.set(fmt.Sprintf("silicon.manufacture_us.%dx%d", shape[0], shape[1]), "us", ns/1e3)
	}

	cfg := counterConfig(8, 16)
	arr := silicon.NewArray(cfg, rng.New(src.Uint64()))
	nm := arr.NewNoise(rng.New(src.Uint64()))
	env := cfg.NominalEnv()
	dst := make([]float64, arr.N())
	// A query measures the oscillators its helper references: half the
	// array, ascending.
	var idxs []int
	for i := 0; i < arr.N(); i++ {
		if src.Bool() {
			idxs = append(idxs, i)
		}
	}
	calls := 2000 + 20000*reps
	ns := timeKernel(rec, "silicon.measure_sparse", calls, func(int) { arr.MeasureSparse(dst, idxs, env, nm) })
	r.set("silicon.measure_sparse_ns_per_osc", "ns", ns/float64(len(idxs)))
	ns = timeKernel(rec, "silicon.measure_dense", calls, func(int) { arr.MeasureIntoWith(dst, env, nm) })
	r.set("silicon.measure_dense_ns_per_osc", "ns", ns/float64(arr.N()))

	// The fleet-sweep task's shape: 64 devices, alternating environments.
	const devices = 64
	seeds := make([]uint64, devices)
	for d := range seeds {
		seeds[d] = src.Uint64()
	}
	var fleet *silicon.Fleet
	ns = timeKernel(rec, "silicon.fleet_manufacture", 5+50*reps, func(int) { fleet = silicon.NewFleet(cfg, seeds) })
	r.set("silicon.fleet_manufacture_us_per_device", "us", ns/1e3/devices)
	envs := [2]silicon.Environment{env, {TempC: 80, VoltageV: 1.1}}
	matrix := make([]float64, devices*fleet.NumOsc())
	ns = timeKernel(rec, "silicon.fleet_sweep", 40+400*reps, func(i int) { fleet.MeasureFleetInto(matrix, envs[i%2]) })
	r.set("silicon.fleet_sweep_ns_per_device", "ns", ns/devices)
	r.set("silicon.fleet_variates_per_sweep", "count", float64(len(matrix)))
	// Per element of an environment-changing sweep: rebuild the true
	// frequency (read base and tempco, write; 24 B), fill the noise
	// (write; 8 B), apply the model (read noise and true frequency,
	// write; 24 B).
	r.set("silicon.fleet_bytes_per_sweep", "bytes-computed", float64(56*len(matrix)))
}

// ---------------------------------------------------------------- ecc --

// replayECC decodes random codewords of the two deployed BCH codes
// under random error patterns of weight 0, t and t+1.
func replayECC(rec *recorder, r *result, src *rng.Source, reps int) {
	const words = 256
	passes := 4 + 40*reps
	codes := []struct {
		name string
		code *ecc.BCH
	}{
		{"bch31_t3", ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})},
		{"bch63_t3", ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3})},
	}
	var ws ecc.Workspace
	for _, c := range codes {
		n, k, t := c.code.N(), c.code.K(), c.code.T()
		msgs := make([]bitvec.Vector, words)
		sent := make([]bitvec.Vector, words)
		for i := range msgs {
			msgs[i] = bitvec.New(k)
			for b := 0; b < k; b++ {
				msgs[i].Set(b, src.Bool())
			}
			sent[i] = bitvec.New(n)
			c.code.EncodeInto(&ws, msgs[i], sent[i])
		}
		if c.name == "bch31_t3" {
			ns := timeKernel(rec, "ecc.encode."+c.name, passes*words, func(i int) {
				c.code.EncodeInto(&ws, msgs[i%words], sent[i%words])
			})
			r.set("ecc.encode_ns."+c.name, "ns", ns)
		}
		dst := bitvec.New(n)
		for _, w := range []int{0, t, t + 1} {
			recv := make([]bitvec.Vector, words)
			for i := range recv {
				recv[i] = sent[i].Clone()
				for _, pos := range src.Perm(n)[:w] {
					recv[i].Flip(pos)
				}
			}
			fails := 0
			for i := range recv {
				if _, decoded := c.code.DecodeInto(&ws, recv[i], dst); !decoded {
					fails++
				}
			}
			ns := timeKernel(rec, fmt.Sprintf("ecc.decode.%s.w%d", c.name, w), passes*words, func(i int) {
				c.code.DecodeInto(&ws, recv[i%words], dst)
			})
			r.set(fmt.Sprintf("ecc.decode_ns.%s.w%d", c.name, w), "ns", ns)
			if w == t+1 && c.name == "bch31_t3" {
				r.set("ecc.decode_fail_frac."+c.name+".w"+fmt.Sprint(w), "ratio", float64(fails)/words)
			}
		}
		// A decode reads the received word and writes the corrected one.
		r.set("ecc.decode_bytes."+c.name, "bytes-computed", float64(2*len(dst.Bytes())))
	}
	r.set("ecc.decodes_per_weight", "count", float64(passes*words))
}

// ------------------------------------------------------------ daemon --

var tracedTasks atomic.Int64

// taskClock records when each task instance of traced campaigns ran,
// keyed by its seed.
type taskClock struct {
	mu    sync.Mutex
	spans map[uint64][2]time.Time
}

// tracedTask registers a task that runs base and records each
// instance's start and end on clock. Its results equal base's.
func tracedTask(base campaign.Task, clock *taskClock) string {
	name := fmt.Sprintf("perfbench-traced-%d-%s", tracedTasks.Add(1), base.Name)
	campaign.Register(campaign.Task{
		Name: name, Desc: "traced " + base.Desc, Figure: base.Figure, Binary: base.Binary,
		Run: func(ctx context.Context, seed uint64, opt campaign.Options) (campaign.Metrics, error) {
			t0 := time.Now()
			m, err := base.Run(ctx, seed, opt)
			t1 := time.Now()
			clock.mu.Lock()
			clock.spans[seed] = [2]time.Time{t0, t1}
			clock.mu.Unlock()
			return m, err
		},
	})
	return name
}

// traceDaemon runs the daemon-campaign cycle through a traced copy of
// the attack-success task, alternating with untraced campaigns of the
// same seeds, and derives the campaign and campaignd rungs from the
// task spans, the client's timings and the daemon's /metrics.
func traceDaemon(ctx context.Context, cfg config, rec *recorder, r *result) error {
	workers := runtime.NumCPU()
	dir, err := os.MkdirTemp(cfg.out, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	history := filepath.Join(dir, "history")
	if err := prepareHistory(cfg, history); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	d, recovers, err := startDaemons(history, dir, cfg.sizes(3, 1))
	if err != nil {
		return err
	}
	defer d.stop()

	base, _ := campaign.Lookup("attack-success")
	clock := &taskClock{spans: make(map[uint64][2]time.Time)}
	tracedName := tracedTask(base, clock)
	plain, _ := jobSpecs(ctx, cfg, cfg.sizes(8, 1), workers)

	bytes0, err := d.counter("campaignd_checkpoint_bytes_total")
	if err != nil {
		return err
	}
	shards0, err := d.counter("campaignd_shards_completed_total")
	if err != nil {
		return err
	}
	var taskMs, shardMs []float64
	var tracedJob, plainJob, busy, capacity time.Duration
	var submit, firstEvent time.Duration
	var events, shards int
	untraced := func(spec campaignd.Spec) error {
		jr, err := d.runJob(spec)
		if err != nil {
			return fmt.Errorf("untraced campaign: %w", err)
		}
		plainJob += jr.total
		_, want, err := referenceRun(ctx, spec)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(jr.result, want), "campaign %#x: daemon result differs from campaign.Run", spec.BaseSeed)
		return nil
	}
	for j, spec := range plain {
		// Alternate which of the pair runs first, so a drift in the
		// host's speed does not read as tracing overhead.
		if j%2 == 0 {
			if err := untraced(spec); err != nil {
				return err
			}
		}
		spec.Task = tracedName
		t0 := time.Now()
		jr, err := d.runJob(spec)
		if err != nil {
			return fmt.Errorf("traced campaign: %w", err)
		}
		tracedJob += jr.total
		submit += jr.submit
		firstEvent += jr.firstEvent
		events += jr.events
		// Rebuild the job's spans: job → shard → task. A shard runs from
		// its first task's start until it is durable; the client sees
		// shards become durable only as a count, so the k-th shard to
		// finish its tasks is taken to be the k-th to become durable.
		job := rec.add("campaignd.job", -1, -1, t0, t0.Add(jr.total))
		nShards := (spec.Seeds + spec.ShardSize - 1) / spec.ShardSize
		if len(jr.durable) != nShards {
			return fmt.Errorf("traced campaign: saw %d of %d shards done", len(jr.durable), nShards)
		}
		tasks := make([][][2]time.Time, nShards)
		clock.mu.Lock()
		for i := 0; i < spec.Seeds; i++ {
			s := i / spec.ShardSize
			tasks[s] = append(tasks[s], clock.spans[rng.StreamSeed(spec.BaseSeed, uint64(i))])
		}
		clock.mu.Unlock()
		// Tasks of a shard run one after another.
		order := make([]int, nShards)
		for s := range order {
			order[s] = s
		}
		sort.Slice(order, func(a, b int) bool {
			ta, tb := tasks[order[a]], tasks[order[b]]
			return ta[len(ta)-1][1].Before(tb[len(tb)-1][1])
		})
		var taskTime time.Duration
		for k, s := range order {
			trace := rec.trace(fmt.Sprintf("job%d/shard%d", j, s))
			first, last := tasks[s][0][0], tasks[s][len(tasks[s])-1][1]
			end := jr.durable[k]
			if end.Before(last) {
				end = last
			}
			shard := rec.add("campaignd.shard", trace, job, first, end)
			shardMs = append(shardMs, ms(end.Sub(first)))
			for _, tt := range tasks[s] {
				rec.add("campaign.task", trace, shard, tt[0], tt[1])
				taskMs = append(taskMs, ms(tt[1].Sub(tt[0])))
				taskTime += tt[1].Sub(tt[0])
			}
		}
		busy += taskTime
		capacity += jr.total * time.Duration(workers)
		shards += nShards
		// The reference run also passes through the traced task, so it
		// runs after the job's spans are taken.
		_, want, err := referenceRun(ctx, spec)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(jr.result, want), "traced campaign %#x: daemon result differs from campaign.Run", spec.BaseSeed)
		if j%2 == 1 {
			if err := untraced(plain[j]); err != nil {
				return err
			}
		}
	}
	bytes1, err := d.counter("campaignd_checkpoint_bytes_total")
	if err != nil {
		return err
	}
	shards1, err := d.counter("campaignd_shards_completed_total")
	if err != nil {
		return err
	}
	jobs := float64(len(plain))
	r.set("campaign.task_ms_p50", "ms", quantile(taskMs, 0.5))
	r.set("campaign.task_ms_p90", "ms", quantile(taskMs, 0.9))
	r.set("campaign.worker_busy_frac", "ratio", float64(busy)/float64(capacity))
	r.set("campaignd.shard_ms_p50", "ms", quantile(shardMs, 0.5))
	r.set("campaignd.shard_ms_p90", "ms", quantile(shardMs, 0.9))
	r.set("campaignd.between_shard_ms", "ms", ms(capacity-busy)/float64(shards))
	r.set("campaignd.checkpoint_bytes_per_shard", "bytes", (bytes1-bytes0)/(shards1-shards0))
	r.set("campaignd.recover_ms", "ms", median(recovers))
	r.set("campaignd.first_event_ms", "ms", ms(firstEvent)/jobs)
	r.set("campaignd.http_submit_ms", "ms", ms(submit)/jobs)
	r.set("campaignd.events", "count", float64(events)/jobs)
	r.set("trace.daemon_overhead_ms", "ms", ms(tracedJob-plainJob)/jobs)
	return nil
}
