package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/campaign"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/experiments"
	"repro/internal/groupbased"
	"repro/internal/helperdata"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tempco"
	"repro/internal/transcript"
)

// attackNames is the attack order of one cycle step.
var attackNames = []string{"seqpair", "tempco", "groupbased", "masking", "chain"}

// setupSeed replaces the workload seed for set-up inputs (the warm-up
// devices, the daemon's checkpoint history): set-up then does the same
// work in every run, and setup_s varies only with the host.
const setupSeed = 0x5e7

// Seed streams: every input of a run derives from the workload seed (or
// setupSeed) through one of these, so no two uses share devices.
const (
	streamWarm = iota
	streamAttackCycle
	streamHistory
	streamJobs
	streamFleet
	streamKernels
)

// seedsFrom returns n device or campaign seeds of one stream.
func seedsFrom(seed, stream uint64, n int) []uint64 {
	base := rng.StreamSeed(seed, stream)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.StreamSeed(base, uint64(i))
	}
	return out
}

// attackSpec is the transcript cell the campaign attack tasks run:
// counter noise, expurgated code for seqpair.
func attackSpec(name string, seed uint64) transcript.Spec {
	return transcript.Spec{Attack: name, Seed: seed, Noise: "counter", Expurgate: name == "seqpair"}
}

// recovered scores one transcript independently of its Recovered flag,
// by the rule daemon-campaign scores attack-success results with: the
// recovered key must hash to the enrolled-key digest, and for the
// relation-only tempco attack every relation found must be right.
func recovered(tr transcript.Transcript) bool {
	if tr.Spec.Attack == "tempco" {
		return tr.RelationsFound > 0 && tr.RelationsRight == tr.RelationsFound
	}
	sum := sha256.Sum256([]byte(tr.Key))
	return len(tr.Key) == tr.EnrolledKeyBits && hex.EncodeToString(sum[:]) == tr.EnrolledKeyDigest
}

// admissibleSeeds draws device seeds from one stream until n of them
// are seeds every attack runs to completion on, and reports how many it
// skipped. Some devices cannot be attacked at all — a tempco device
// with fewer than three cooperating pairs, say — and the attacks refuse
// them with an error; such inputs are left out of the workload so no
// timed operation fails. The probe also warms pool.
func admissibleSeeds(ctx context.Context, seed, stream uint64, n int, pool *campaign.Pool) (seeds []uint64, skipped int) {
	base := rng.StreamSeed(seed, stream)
	for i := uint64(0); len(seeds) < n; i++ {
		s := rng.StreamSeed(base, i)
		if attackable(ctx, s, pool) {
			seeds = append(seeds, s)
		} else {
			skipped++
		}
	}
	return seeds, skipped
}

// attackable reports whether every attack completes on seed's devices.
func attackable(ctx context.Context, seed uint64, pool *campaign.Pool) bool {
	return attackAll(ctx, seed, pool) == nil
}

// attackAll runs every attack on seed's devices.
func attackAll(ctx context.Context, seed uint64, pool *campaign.Pool) error {
	for _, name := range attackNames {
		if _, err := experiments.RunAttackPooled(ctx, attackSpec(name, seed), pool); err != nil {
			return fmt.Errorf("%s seed %#x: %w", name, seed, err)
		}
	}
	return nil
}

// runAttackSerial is the attack-serial workload. One cycle is the fixed
// list (device seed × attack); the loop repeats it until the time is
// up, so the query count of every (seed, attack) cell must repeat
// exactly.
func runAttackSerial(ctx context.Context, cfg config, r *result) error {
	// Set-up: a fresh process pays the BCH tables and the first
	// enrollment (plus one attack) of every attack kind.
	warm, _ := admissibleSeeds(ctx, setupSeed, streamWarm, 1, nil)
	su := &setups{cfg: cfg, arg: func(int) (string, error) { return strconv.FormatUint(warm[0], 10), nil }}
	pool := campaign.NewPool()
	cycle, skipped := admissibleSeeds(ctx, cfg.seed, streamAttackCycle, cfg.sizes(128, 2), pool)
	r.Info["skipped_seeds"] = skipped

	firstQueries := make([]int, len(cycle)*len(attackNames))
	wins := 0
	ls, err := closedLoop(cfg, len(firstQueries), func(i int) float64 {
		seed, name := cycle[i/len(attackNames)], attackNames[i%len(attackNames)]
		tr, err := experiments.RunAttackPooled(ctx, attackSpec(name, seed), pool)
		if err != nil {
			r.check(false, "attack %s seed %#x: %v", name, seed, err)
			return 0
		}
		ok := recovered(tr)
		if firstQueries[i] == 0 {
			firstQueries[i] = tr.Queries
		}
		// The transcript's flag for tempco also asks for every mask bit.
		agrees := ok == tr.Recovered || (name == "tempco" && ok)
		r.check(agrees && tr.Queries == firstQueries[i],
			"attack %s seed %#x: recovered %v (flag %v), queries %d (first %d)", name, seed, ok, tr.Recovered, tr.Queries, firstQueries[i])
		if ok {
			wins++
		}
		return 1
	}, su)
	if err != nil {
		return err
	}
	ls.report(r, su)
	r.set("success_rate", "ratio", float64(wins)/float64(len(ls.lat)))
	return nil
}

// ------------------------------------------------------ traced replay --

// replayer enrolls devices exactly as the transcript harness does —
// the same canonical parameters, through the device layer's
// Enroll*Reuse path with one carcass and one code per attack — so a
// traced attack.Run over its targets must reproduce the untraced
// transcript's key and query count.
type replayer struct {
	codes map[string]ecc.Code
	prev  map[string]any
}

func newReplayer() *replayer {
	return &replayer{codes: make(map[string]ecc.Code), prev: make(map[string]any)}
}

func (rp *replayer) code(name string, cfg ecc.BCHConfig) ecc.Code {
	c, ok := rp.codes[name]
	if !ok {
		c = ecc.MustBCH(cfg)
		rp.codes[name] = c
	}
	return c
}

// enroll manufactures and enrolls the device attack name runs against
// for seed, and returns it as an untraced target.
func (rp *replayer) enroll(name string, seed uint64) (attack.Target, error) {
	mfg, run := rng.New(seed), rng.New(seed+1)
	noise := silicon.NoiseCounter
	switch name {
	case "seqpair":
		prev, _ := rp.prev[name].(*device.SeqPairDevice)
		d, err := device.EnrollSeqPairReuse(prev, device.SeqPairParams{
			Rows: 8, Cols: 16,
			ThresholdMHz: 0.8,
			Policy:       pairing.RandomizedStorage,
			Code:         rp.code(name, ecc.BCHConfig{M: 5, T: 3, Expurgate: true}),
			EnrollReps:   20,
			Noise:        noise,
		}, mfg, run)
		if err != nil {
			delete(rp.prev, name)
			return nil, err
		}
		rp.prev[name] = d
		return attack.NewSeqPairTarget(d), nil
	case "tempco":
		prev, _ := rp.prev[name].(*device.TempCoDevice)
		d, err := device.EnrollTempCoReuse(prev, tempco.Params{
			Rows: 8, Cols: 16,
			ThresholdMHz: 0.6,
			TminC:        -20, TmaxC: 80,
			Policy:     tempco.RandomSelection,
			Code:       rp.code(name, ecc.BCHConfig{M: 6, T: 3}),
			EnrollReps: 25,
			Noise:      noise,
		}, mfg, run)
		if err != nil {
			delete(rp.prev, name)
			return nil, err
		}
		rp.prev[name] = d
		return attack.NewTempCoTarget(d), nil
	case "groupbased":
		prev, _ := rp.prev[name].(*device.GroupBasedDevice)
		d, err := device.EnrollGroupBasedReuse(prev, groupbased.Params{
			Rows: 4, Cols: 10,
			Degree:       2,
			ThresholdMHz: 0.5,
			MaxGroupSize: 6,
			Code:         rp.code(name, ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps:   25,
			Noise:        noise,
		}, mfg, run)
		if err != nil {
			delete(rp.prev, name)
			return nil, err
		}
		rp.prev[name] = d
		return attack.NewGroupBasedTarget(d), nil
	case "masking", "chain":
		p := device.DistillerPairParams{
			Rows: 4, Cols: 10,
			Degree:     2,
			Mode:       device.MaskedChain,
			K:          5,
			Code:       rp.code(name, ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps: 25,
			Noise:      noise,
		}
		if name == "chain" {
			p.Mode, p.K = device.OverlappingChain, 0
		}
		prev, _ := rp.prev[name].(*device.DistillerPairDevice)
		d, err := device.EnrollDistillerPairReuse(prev, p, mfg, run)
		if err != nil {
			delete(rp.prev, name)
			return nil, err
		}
		rp.prev[name] = d
		return attack.NewDistillerTarget(d), nil
	}
	return nil, fmt.Errorf("replay: unknown attack %q", name)
}

// targetStats accumulates the device-layer calls of traced targets.
type targetStats struct {
	reads, writes, queries, binds int
	read, write, query, bind      time.Duration
}

func (s *targetStats) add(o targetStats) {
	s.reads += o.reads
	s.writes += o.writes
	s.queries += o.queries
	s.binds += o.binds
	s.read += o.read
	s.write += o.write
	s.query += o.query
	s.bind += o.bind
}

// tracedTarget times every call into the wrapped target as a child
// span of the attack.run span.
type tracedTarget struct {
	inner  attack.Target
	rec    *recorder
	trace  int32
	parent int32
	st     *targetStats
}

// wrapTarget traces inner. The wrapper implements attack.KeyBinder and
// attack.Forker exactly when inner does: attacks branch on those
// interfaces, so the traced run must present the same ones.
func wrapTarget(inner attack.Target, rec *recorder, trace, parent int32, st *targetStats) attack.Target {
	t := &tracedTarget{inner: inner, rec: rec, trace: trace, parent: parent, st: st}
	_, binds := inner.(attack.KeyBinder)
	_, forks := inner.(attack.Forker)
	switch {
	case binds && forks:
		return tracedBinderForker{t}
	case binds:
		return tracedBinder{t}
	case forks:
		return tracedForker{t}
	}
	return t
}

func (t *tracedTarget) Spec() attack.Spec { return t.inner.Spec() }
func (t *tracedTarget) Queries() int      { return t.inner.Queries() }

func (t *tracedTarget) ReadImage() (*helperdata.Image, error) {
	id := t.rec.begin("device.read", t.trace, t.parent)
	im, err := t.inner.ReadImage()
	t.st.read += t.rec.end(id)
	t.st.reads++
	return im, err
}

func (t *tracedTarget) WriteImage(im *helperdata.Image) error {
	id := t.rec.begin("device.write", t.trace, t.parent)
	err := t.inner.WriteImage(im)
	t.st.write += t.rec.end(id)
	t.st.writes++
	return err
}

func (t *tracedTarget) Query() bool {
	id := t.rec.begin("device.query", t.trace, t.parent)
	fail := t.inner.Query()
	t.st.query += t.rec.end(id)
	t.st.queries++
	return fail
}

func (t *tracedTarget) bindKey(key bitvec.Vector) {
	id := t.rec.begin("device.bind", t.trace, t.parent)
	t.inner.(attack.KeyBinder).BindKey(key)
	t.st.bind += t.rec.end(id)
	t.st.binds++
}

func (t *tracedTarget) fork(seed uint64) (attack.Target, error) {
	f, err := t.inner.(attack.Forker).Fork(seed)
	if err != nil {
		return nil, err
	}
	return wrapTarget(f, t.rec, t.trace, t.parent, t.st), nil
}

type tracedBinder struct{ *tracedTarget }

func (t tracedBinder) BindKey(key bitvec.Vector) { t.bindKey(key) }

type tracedForker struct{ *tracedTarget }

func (t tracedForker) Fork(seed uint64) (attack.Target, error) { return t.fork(seed) }

type tracedBinderForker struct{ *tracedTarget }

func (t tracedBinderForker) BindKey(key bitvec.Vector)               { t.bindKey(key) }
func (t tracedBinderForker) Fork(seed uint64) (attack.Target, error) { return t.fork(seed) }

// attackLayers is the device and attack rungs of the ladder for one
// attack, summed over the second traced pass of the cycle.
type attackLayers struct {
	runs              int
	enroll, run, self time.Duration
	queries           int
	st                targetStats
	// traced and bare time the same replay — enroll, then attack.Run —
	// through the timing wrapper and on the bare device target.
	traced, bare time.Duration
}

// cycleCounts are the per-cycle totals that must repeat exactly from
// one pass over the cycle to the next.
type cycleCounts struct {
	queries, writes int
	mallocs         uint64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// traceAttacks runs the attack cycle twice through RunAttackPooled and
// twice through the replay with traced targets; the second replay pass
// also runs every cell on the bare target, alternating which goes
// first. It checks that every replay reproduces the untraced
// transcript's key and query count, and that per-cycle query and write
// counts repeat exactly; the returned layers sum the second pass.
func traceAttacks(ctx context.Context, cfg config, rec *recorder, r *result) (map[string]*attackLayers, [2]cycleCounts, error) {
	var counts [2]cycleCounts
	pool := campaign.NewPool()
	cycle, _ := admissibleSeeds(ctx, cfg.seed, streamAttackCycle, cfg.sizes(24, 2), pool)
	layers := make(map[string]*attackLayers, len(attackNames))
	for _, name := range attackNames {
		layers[name] = new(attackLayers)
	}
	want := make([]transcript.Transcript, len(cycle)*len(attackNames))
	for pass := range counts {
		m0 := mallocs()
		for i := range want {
			seed, name := cycle[i/len(attackNames)], attackNames[i%len(attackNames)]
			tr, err := experiments.RunAttackPooled(ctx, attackSpec(name, seed), pool)
			if err != nil {
				return nil, counts, fmt.Errorf("untraced %s seed %#x: %w", name, seed, err)
			}
			counts[pass].queries += tr.Queries
			want[i] = tr
		}
		counts[pass].mallocs = mallocs() - m0
	}
	r.check(counts[0].queries == counts[1].queries, "untraced cycle queries %d then %d", counts[0].queries, counts[1].queries)

	rp := newReplayer()
	opts := attack.Options{Dist: attack.DefaultDistinguisher()}
	// bare replays one cell on the unwrapped target.
	bare := func(name string, seed uint64, ref transcript.Transcript) time.Duration {
		t0 := time.Now()
		target, err := rp.enroll(name, seed)
		var rep attack.Report
		if err == nil {
			rep, err = attack.Run(ctx, name, target, opts)
		}
		d := time.Since(t0)
		r.check(err == nil && rep.Key.String() == ref.Key && rep.Queries == ref.Queries,
			"bare replay %s seed %#x: queries %d, error %v; untraced transcript has %d", name, seed, rep.Queries, err, ref.Queries)
		return d
	}
	var writes [2]int
	for pass := range writes {
		for i, ref := range want {
			seed, name := cycle[i/len(attackNames)], attackNames[i%len(attackNames)]
			l := layers[name]
			if pass == 1 && i%2 == 0 {
				l.bare += bare(name, seed, ref)
			}
			trace := rec.trace(fmt.Sprintf("attack/%s/%#x/pass%d", name, seed, pass))
			t0 := time.Now()
			eid := rec.begin("device.enroll", trace, -1)
			target, err := rp.enroll(name, seed)
			enrollDur := rec.end(eid)
			if err != nil {
				return nil, counts, fmt.Errorf("replay enroll %s seed %#x: %w", name, seed, err)
			}
			var st targetStats
			rid := rec.begin("attack.run", trace, -1)
			rep, err := attack.Run(ctx, name, wrapTarget(target, rec, trace, rid, &st), opts)
			runDur := rec.end(rid)
			call := time.Since(t0)
			r.check(err == nil && rep.Key.String() == ref.Key && rep.Queries == ref.Queries,
				"replay %s seed %#x: queries %d, error %v; untraced transcript has %d", name, seed, rep.Queries, err, ref.Queries)
			writes[pass] += st.writes
			if pass == 0 {
				continue
			}
			if i%2 == 1 {
				l.bare += bare(name, seed, ref)
			}
			l.runs++
			l.enroll += enrollDur
			l.run += runDur
			l.self += runDur - st.read - st.write - st.query - st.bind
			l.queries += rep.Queries
			l.traced += call
			l.st.add(st)
		}
	}
	r.check(writes[0] == writes[1], "traced cycle writes %d then %d", writes[0], writes[1])
	counts[0].writes, counts[1].writes = writes[0], writes[1]
	return layers, counts, nil
}
