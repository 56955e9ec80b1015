// Command puf-attack runs any registered helper-data manipulation
// attack end to end against the attack's reference device and reports
// the unified attack.Report: recovery outcome, oracle cost, and
// per-phase breakdown.
//
// The attack is resolved through the attack registry, and the device
// is the one transcript.Enroll manufactures for it — the same
// per-attack parameter table the goldens and experiments use. With
// -workers > 1 the oracle is wrapped in the batched backend
// (attack.BatchTarget), which evaluates the arms of each hypothesis
// test concurrently on forked oracles — bit-identical results for any
// worker count.
//
// Usage:
//
//	puf-attack -list
//	puf-attack -attack seqpair [-seed N] [-strategy sequential|fixed]
//	puf-attack -attack groupbased -workers 8 -budget 200000 -timeout 2m
//
// The simulated device draws its measurement noise from the
// counter-mode model, whose sparse oracle queries draw only the
// helper-referenced oscillators' noise (O(k)).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/transcript"
)

// config is one parsed, validated invocation.
type config struct {
	attack   string
	list     bool
	seed     uint64
	strategy string
	workers  int
	budget   int
	timeout  time.Duration
	verbose  bool
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
		fmt.Printf("%-12s %s\n", "ATTACK", "DESCRIPTION")
		for _, a := range attack.Attacks() {
			fmt.Printf("%-12s %s\n", a.Name(), a.Description())
		}
		return
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	target, truth, err := setup(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "puf-attack:", err)
		os.Exit(1)
	}
	spec := target.Spec()
	geometry := ""
	if spec.Rows > 0 {
		geometry = fmt.Sprintf("%dx%d array, ", spec.Rows, spec.Cols)
	}
	fmt.Printf("enrolled %s device: %scode %s, key %d bits (noise model: %s)\n",
		spec.Construction, geometry, spec.Code, truth.Len(), spec.Noise)
	if cfg.workers > 1 {
		fmt.Printf("oracle backend: batched, %d workers\n", cfg.workers)
	}

	rep, err := run(ctx, cfg, target, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "puf-attack:", err)
		os.Exit(1)
	}
	printReport(rep, truth)
}

// parseArgs parses and validates the command line, printing any error
// to stderr; the caller exits 2 on a non-nil error (0 for -h).
func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("puf-attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.attack, "attack", "seqpair", "registered attack name (see -list)")
	fs.BoolVar(&c.list, "list", false, "list registered attacks and exit")
	fs.Uint64Var(&c.seed, "seed", 1, "device manufacturing seed")
	fs.StringVar(&c.strategy, "strategy", "sequential", "distinguisher: sequential or fixed")
	fs.IntVar(&c.workers, "workers", 1, "batched oracle workers (> 1 wraps the target in attack.BatchTarget)")
	fs.IntVar(&c.budget, "budget", 0, "oracle query budget (0 = unlimited)")
	fs.DurationVar(&c.timeout, "timeout", 0, "attack wall-time limit (0 = none)")
	fs.BoolVar(&c.verbose, "v", false, "print per-phase progress lines")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	var err error
	switch {
	case c.strategy != "sequential" && c.strategy != "fixed":
		err = fmt.Errorf("-strategy %q: want sequential or fixed", c.strategy)
	case c.budget < 0:
		err = fmt.Errorf("-budget %d: want >= 0", c.budget)
	case c.workers < 0:
		err = fmt.Errorf("-workers %d: want >= 0", c.workers)
	}
	if err != nil {
		fmt.Fprintln(stderr, "puf-attack:", err)
	}
	return c, err
}

// setup enrolls the attack's reference device and, for workers > 1,
// wraps its oracle in the batched backend. It returns the target and
// the enrolled key.
func setup(cfg config) (attack.Target, bitvec.Vector, error) {
	target, truth, err := transcript.Enroll(transcript.Spec{
		Attack:    cfg.attack,
		Seed:      cfg.seed,
		Expurgate: cfg.attack == "seqpair",
	})
	if err != nil {
		return nil, bitvec.Vector{}, err
	}
	if cfg.workers > 1 {
		if target, err = attack.NewBatchTarget(target, cfg.workers, cfg.seed^0xba7c4); err != nil {
			return nil, bitvec.Vector{}, err
		}
	}
	return target, truth, nil
}

// run attacks target with the configured distinguisher and budget and
// returns the report. With -v it writes one line per phase to progress.
func run(ctx context.Context, cfg config, target attack.Target, progress io.Writer) (attack.Report, error) {
	opts := attack.Options{Dist: attack.DefaultDistinguisher(), QueryBudget: cfg.budget}
	if cfg.strategy == "fixed" {
		opts.Dist = attack.Distinguisher{Strategy: attack.FixedSample, Queries: 10}
	}
	if cfg.verbose {
		last := ""
		opts.Progress = func(p attack.Progress) {
			if p.Phase != last {
				fmt.Fprintf(progress, "  phase %s...\n", p.Phase)
				last = p.Phase
			}
		}
	}
	return attack.Run(ctx, cfg.attack, target, opts)
}

func printReport(rep attack.Report, truth bitvec.Vector) {
	// Relation-only attacks (tempco) return no key to score.
	if rep.Key.Len() > 0 {
		fmt.Printf("recovered key : %s\n", rep.Key)
		fmt.Printf("true key      : %s\n", truth)
		fmt.Printf("exact=%v ambiguous=%v\n", rep.Key.Equal(truth), rep.Ambiguous)
	}
	switch det := rep.Details.(type) {
	case attack.SeqPairDetails:
		fmt.Printf("calibration   : p(offset)=%.3f p(offset+1)=%.3f over %d queries\n",
			det.Calibration.PNominal, det.Calibration.PElevated, det.Calibration.Queries)
	case attack.TempCoDetails:
		fmt.Printf("reference pair: %d\n", det.RefIdx)
		fmt.Printf("relations     : %d recovered (skipped %d unstable at ambient)\n", len(det.XorWithRef), len(det.Skipped))
		fmt.Printf("mask bits     : %d absolute\n", len(det.MaskBits))
	case attack.GroupBasedDetails:
		fmt.Printf("groups        : %d/%d resolved\n", det.Resolved, len(det.Orders))
	case attack.MaskingDetails:
		fmt.Printf("base bits     : %d recovered\n", len(det.BaseBits))
	case attack.ChainDetails:
		fmt.Printf("hypotheses    : max %d simultaneous\n", det.MaxHypotheses)
	}
	fmt.Printf("oracle queries: %d in %s\n", rep.Queries, rep.Elapsed.Round(time.Millisecond))
	for _, ph := range rep.Phases {
		fmt.Printf("  %-12s %6d queries  %s\n", ph.Name, ph.Queries, ph.Elapsed.Round(time.Millisecond))
	}
}
