// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads and prints the end-to-end metrics, or, with
// --trace 1, the per-layer ladder measured by timing calls into each
// layer's public functions from outside:
//
//	bash perfbench/run.sh --workload attack-serial --seed 1 --seconds 30 --trace 0
//
// Workloads (each caller waits for its reply before sending the next
// request):
//
//   - attack-serial: one goroutine attacks a fixed cycle of devices with
//     all five attacks through experiments.RunAttackPooled.
//   - daemon-campaign: one HTTP client submits attack-success campaigns
//     to an in-process campaignd and follows each over SSE.
//   - fleet-sweep: campaign.Run of the fleet-sweep task with one worker.
//
// Every workload input derives from --seed. A workload run measures for
// --seconds; the traced run does a fixed amount of work whatever
// --workload and --seconds say. Standard output ends with three JSON
// lines: run details ("info"), the host stamp ("host"), and the result
// object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// out is the directory for daemon state and span files.
	out string
	// quick shrinks every cycle and repetition count; the benchmark's
	// own tests use it.
	quick bool
}

// sizes returns n, or small when the run is quick.
func (c config) sizes(n, small int) int {
	if c.quick {
		return small
	}
	return n
}

// setupReps is how many set-up processes each workload starts; setup_s
// is the median of their times.
func (c config) setupReps() int { return c.sizes(41, 2) }

// workloads maps a --workload name to its untraced run.
var workloads = map[string]func(context.Context, config, *result) error{
	"attack-serial":   runAttackSerial,
	"daemon-campaign": runDaemonCampaign,
	"fleet-sweep":     runFleetSweep,
}

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
// Attempted counts operations (attacks, campaigns, replayed kernels);
// Failed counts those that errored or failed a correctness check.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Workers is the worker count the run used, for the host stamp.
	Workers int `json:"-"`
	// Info holds what a run reports besides metrics (digests, counts
	// that must repeat, the span file); it is printed on its own line.
	Info map[string]any `json:"-"`
}

func newResult() *result {
	return &result{Metrics: make(map[string]metric), Workers: 1, Info: make(map[string]any)}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// check counts one checked operation and reports a failed one on
// standard error.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// host is the stamp printed with every result.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Workers    int    `json:"workers"`
}

func hostStamp(workers int) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Workers:    workers,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	if setupChild() {
		return
	}
	var cfg config
	var secs int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: attack-serial, daemon-campaign or fleet-sweep")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it")
	flag.IntVar(&secs, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ladder instead of the workload")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for daemon state and span files")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || secs <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, v := range []any{
		map[string]any{"info": res.Info},
		map[string]host{"host": hostStamp(res.Workers)},
		res,
	} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// run executes one invocation: the named workload untraced, or the
// traced ladder.
func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	res := newResult()
	steal0, stealOK := stealSeconds()
	t0 := time.Now()
	var err error
	if cfg.trace {
		err = runLadder(ctx, cfg, res)
	} else {
		err = workloads[cfg.workload](ctx, cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	// The share of the host's CPU time the hypervisor gave to other
	// guests during the run: where it is high, every time of the run is.
	if steal1, ok := stealSeconds(); ok && stealOK {
		res.Info["host_steal_frac"] = (steal1 - steal0) / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
	}
	return res, nil
}

// stealSeconds reads the CPU time stolen from this machine so far, from
// the steal field of /proc/stat's first line (in USER_HZ ticks, 1/100 s
// on Linux); ok is false where there is none.
func stealSeconds() (secs float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	return ticks / 100, err == nil
}

// liveHeapMB collects garbage twice — the second pass frees what the
// first only unlinked (finalizers, sync.Pool victims) — and returns the
// heap that remains reachable, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// ------------------------------------------------------------- stats --

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minCalls is the fewest calls a run measures, whatever --seconds says,
// and the calls of one latency window: a window's p90 has ten samples
// beyond it.
const minCalls = 100

// windowQuantile splits lat, in call order, into windows of minCalls
// calls (leaving out a last partial one) and returns the median of the
// windows' q-quantiles, so a burst of load from outside moves only the
// windows it falls in.
func windowQuantile(lat []float64, q float64) float64 {
	var qs []float64
	for i := 0; i+minCalls <= len(lat); i += minCalls {
		qs = append(qs, quantile(slices.Clone(lat[i:i+minCalls]), q))
	}
	return median(qs)
}

// loopStats is what a closed loop measured.
type loopStats struct {
	lat   []float64 // ms per call
	rates []float64 // work units per second, one per cycle
	// liveMB is the live heap after the first cycle: every run holds
	// the same state there, so it does not depend on the host's speed.
	liveMB float64
}

// closedLoop makes the n calls of one cycle one after another, each
// waiting for the last, and repeats whole cycles until it has measured
// for cfg.seconds and made at least minCalls calls. call(i) returns the
// work units (attacks, device sweeps) call i completed. Between cycles,
// untimed, it runs the share of su's set-ups that the time gone calls
// for.
func closedLoop(cfg config, n int, call func(i int) float64, su *setups) (loopStats, error) {
	var ls loopStats
	start := time.Now()
	for len(ls.rates) == 0 || len(ls.lat) < minCalls || time.Since(start) < cfg.seconds {
		c0 := time.Now()
		var work float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			work += call(i)
			ls.lat = append(ls.lat, ms(time.Since(t0)))
		}
		ls.rates = append(ls.rates, work/time.Since(c0).Seconds())
		if len(ls.rates) == 1 {
			ls.liveMB = liveHeapMB()
		}
		if err := su.upTo(float64(time.Since(start)) / float64(cfg.seconds)); err != nil {
			return ls, err
		}
	}
	return ls, su.upTo(1)
}

// report sets the median set-up time, the loop's throughput — the
// median over cycles, so a burst of load from outside moves it less —
// its latency percentiles, by window, and its live heap.
func (ls loopStats) report(r *result, su *setups) {
	r.set("setup_s", "s", median(su.secs))
	r.set("throughput_per_s", "1/s", median(ls.rates))
	r.set("call_ms_p50", "ms", windowQuantile(ls.lat, 0.5))
	r.set("call_ms_p90", "ms", windowQuantile(ls.lat, 0.9))
	r.set("live_heap_mb", "MiB", ls.liveMB)
	r.Info["cycles"] = len(ls.rates)
	r.Info["calls"] = len(ls.lat)
}

// writeSpans writes the recorder's spans, after a line stamping the
// host, as gzipped JSON lines under cfg.out and returns the file path.
func writeSpans(cfg config, rec *recorder, workers int) (string, error) {
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl.gz", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	err = enc.Encode(map[string]any{"host": hostStamp(workers), "workload": cfg.workload, "seed": cfg.seed})
	if err == nil {
		err = rec.encode(enc)
	}
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
