// Command puf-campaign runs a registered experiment across a range of
// derived device seeds and prints aggregated campaign statistics (mean,
// stddev, min/max, and Wilson 95% intervals for binary outcomes such as
// key recovery).
//
// It has two execution modes sharing one report format:
//
//   - Local (default): the campaign runs in-process on a bounded worker
//     pool, exactly as before.
//   - Client (-addr): the spec is submitted to a running puf-campaignd
//     daemon, progress is streamed over server-sent events, and the
//     daemon's final result is printed. Because every task instance
//     derives its randomness purely from (base seed, task index), the
//     two modes print bit-identical aggregates for the same spec — even
//     when the daemon was killed and resumed mid-sweep.
//
// Usage:
//
//	puf-campaign -list
//	puf-campaign -task attack-success -seeds 64 -workers 8
//	puf-campaign -task seqpair-attack -seeds 100 -base 42 -json
//	puf-campaign -task groupbased-attack -timeout 10m
//	puf-campaign -addr http://localhost:8787 -task fig5 -seeds 256 -v
//
// Attack-backed tasks enroll their devices under the counter-mode
// silicon noise model (O(k) sparse oracle queries).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/campaignd"
	_ "repro/internal/experiments" // registers every experiment task
)

// config is one parsed, validated invocation.
type config struct {
	spec    campaignd.Spec
	list    bool
	timeout time.Duration
	addr    string
	jsonOut bool
	verbose bool
}

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	if cfg.list {
		fmt.Printf("%-20s %-10s %s\n", "TASK", "FIGURE", "DESCRIPTION")
		for _, t := range campaign.Tasks() {
			fig := t.Figure
			if fig == "" {
				fig = "-"
			}
			fmt.Printf("%-20s %-10s %s\n", t.Name, fig, t.Desc)
		}
		fmt.Printf("\nattack-backed tasks dispatch through the attack registry: %v\n", attack.Names())
		return
	}

	// Ctrl-C cancels the campaign cleanly mid-run; -timeout adds the
	// same deadline control puf-attack exposes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	var (
		res     *campaign.Result
		start   = time.Now()
		backend = "local"
	)
	if cfg.addr != "" {
		backend = cfg.addr
		res, err = runRemote(ctx, cfg.addr, cfg.spec, cfg.verbose)
	} else {
		res, err = runLocal(ctx, cfg.spec, cfg.verbose)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "puf-campaign:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "puf-campaign:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("campaign %s: %d seeds (base %d), %d workers, backend=%s, %s\n",
		res.Task, res.Seeds, res.BaseSeed, res.Workers, backend, elapsed.Round(time.Millisecond))
	printAggregates(res.Aggregates)
}

// parseArgs parses and validates the command line. Unless -list is set
// the spec goes through campaignd.Spec.Validate — the gate the daemon
// applies — so local and client mode accept exactly the same specs, and
// a bad one fails before any pool or network work.
func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("puf-campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.spec.Task, "task", "", "registered task name (see -list)")
	fs.BoolVar(&c.list, "list", false, "list registered tasks and exit")
	fs.IntVar(&c.spec.Seeds, "seeds", 16, "number of derived seeds (task instances)")
	fs.Uint64Var(&c.spec.BaseSeed, "base", 1, "campaign base seed")
	fs.IntVar(&c.spec.Workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.DurationVar(&c.timeout, "timeout", 0, "campaign wall-time limit (0 = none)")
	fs.StringVar(&c.addr, "addr", "", "campaignd base URL (e.g. http://localhost:8787); empty = run locally")
	fs.IntVar(&c.spec.ShardSize, "shard-size", 0, "seeds per checkpointed shard in client mode (0 = daemon default)")
	fs.BoolVar(&c.jsonOut, "json", false, "emit the full result as JSON")
	fs.BoolVar(&c.verbose, "v", false, "print per-seed outcomes (local) or shard progress (client) as they complete")
	if err := fs.Parse(args); err != nil || c.list {
		return c, err
	}
	err := c.spec.Validate()
	if err == nil && c.timeout < 0 {
		err = fmt.Errorf("-timeout %v: want >= 0", c.timeout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "puf-campaign:", err)
	}
	return c, err
}

// runLocal executes the campaign in-process. With verbose set, per-seed
// outcomes stream through the engine's Progress callback as they
// complete — the same mechanism the daemon's SSE stream uses — instead
// of being re-derived from the final result.
func runLocal(ctx context.Context, spec campaignd.Spec, verbose bool) (*campaign.Result, error) {
	cspec := campaign.Spec{
		Task:     spec.Task,
		BaseSeed: spec.BaseSeed,
		Seeds:    spec.Seeds,
		Workers:  spec.Workers,
		Options:  campaign.Options{Noise: spec.Noise},
	}
	if verbose {
		cspec.Progress = func(ev campaign.ProgressEvent) {
			fmt.Printf("  [%3d/%3d] seed[%3d] = %#016x: %v\n",
				ev.Done, ev.Total, ev.Outcome.Index, ev.Outcome.Seed, ev.Outcome.Metrics)
		}
	}
	return campaign.Run(ctx, cspec)
}

// printAggregates renders the aggregate table both modes share.
func printAggregates(aggs []campaign.Aggregate) {
	fmt.Printf("%-26s %6s %12s %12s %12s %12s %s\n",
		"METRIC", "N", "MEAN", "STDDEV", "MIN", "MAX", "WILSON-95%")
	for _, a := range aggs {
		wilson := ""
		if a.Binary {
			wilson = fmt.Sprintf("[%.3f, %.3f] (%d/%d)", a.WilsonLo, a.WilsonHi, a.Successes, a.N)
		}
		fmt.Printf("%-26s %6d %12.4f %12.4f %12.4f %12.4f %s\n",
			a.Metric, a.N, a.Mean, a.Stddev, a.Min, a.Max, wilson)
	}
}
