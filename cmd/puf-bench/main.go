// Command puf-bench regenerates every table and figure of the paper as
// human-readable text. Each experiment has a benchmark counterpart in
// bench_test.go (BenchmarkFig6a for E5, and so on), which is also the
// way to profile one: go test -run '^$' -bench Fig6a -cpuprofile cpu.out .
// Performance is measured by the perfbench module, not by this tool.
//
// Usage:
//
//	puf-bench [-seed N] [-experiment all|E1..E12|A1|A2|A4|R1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/transcript"
)

func main() {
	seed := flag.Uint64("seed", 1, "master seed for all experiments")
	which := flag.String("experiment", "all", "experiment id (E1..E12, A1, A2, A4, R1) or 'all'")
	flag.Parse()
	os.Exit(run(*seed, *which))
}

// run executes the selected experiments and returns the process status.
func run(seed uint64, which string) int {
	runners := []struct {
		id  string
		fn  func(seed uint64) error
		doc string
	}{
		{"E1", runE1, "Table I: compact and Kendall coding"},
		{"E2", runE2, "Fig. 2: frequency topology variance decomposition"},
		{"E3", runE3, "Fig. 3: pair classification vs threshold"},
		{"E4", runE4, "Fig. 5: failure-rate PDFs and distinguishability"},
		{"E5", runE5, "Fig. 6a / §VI-C: group-based full key recovery"},
		{"E6", runE6, "Fig. 6b / §VI-D: distiller + 1-out-of-k masking"},
		{"E7", runE7, "Fig. 6c / §VI-D: distiller + overlapping chain"},
		{"E8", runE8, "§VI-A: sequential pairing key recovery"},
		{"E9", runE9, "§VI-B: temperature-aware cooperative relations"},
		{"E11", runE11, "§II/§V-B: entropy accounting"},
		{"E12", runE12, "§VII: fuzzy extractor resistance"},
		{"A1", runA1, "ablation: storage-policy leakage (§VII-C)"},
		{"A2", runA2, "ablation: sequential vs fixed-sample distinguisher"},
		{"A4", runA4, "ablation: common-offset size vs separation and cost"},
		{"R1", runR1, "robustness: attack success rates across devices"},
	}
	ran := false
	for _, r := range runners {
		if which != "all" && which != r.id {
			continue
		}
		ran = true
		fmt.Printf("==== %s — %s ====\n", r.id, r.doc)
		if err := r.fn(seed); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			return 1
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		return 2
	}
	return 0
}

func runE1(uint64) error {
	rows := experiments.TableI()
	fmt.Printf("%-6s %-8s %-8s\n", "Order", "Compact", "Kendall")
	for _, r := range rows {
		fmt.Printf("%-6s %-8s %-8s\n", r.Order, r.Compact, r.Kendall)
	}
	return nil
}

func runE2(seed uint64) error {
	r, err := experiments.Fig2(seed)
	if err != nil {
		return err
	}
	fmt.Printf("array %dx%d\n", r.Rows, r.Cols)
	fmt.Printf("raw frequency variance        : %8.3f MHz^2\n", r.RawVariance)
	fmt.Printf("true systematic variance      : %8.3f MHz^2\n", r.SystVariance)
	fmt.Printf("true random variance          : %8.3f MHz^2\n", r.RandVariance)
	fmt.Printf("residual variance after p=2 fit: %7.3f MHz^2\n", r.ResidualVar)
	fmt.Printf("distillation gain             : %8.2fx\n", r.RawVariance/r.ResidualVar)
	return nil
}

func runE3(seed uint64) error {
	rows, err := experiments.Fig3(seed, []float64{0.2, 0.4, 0.6, 0.8, 1.2, 1.6, 2.4})
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-6s %-6s %-6s %-8s\n", "threshold MHz", "good", "bad", "coop", "key bits")
	for _, r := range rows {
		fmt.Printf("%-14.2f %-6d %-6d %-6d %-8d\n", r.ThresholdMHz, r.Good, r.Bad, r.Coop, r.KeyBits)
	}
	return nil
}

func runE4(seed uint64) error {
	r, err := experiments.Fig5(seed, 2000)
	if err != nil {
		return err
	}
	fmt.Printf("ECC radius t = %d\n", r.T)
	fmt.Printf("%-8s %-10s %-10s %-10s\n", "#errors", "nominal", "H0", "H1")
	max := 0
	for _, h := range []interface{ Support() []int }{r.Nominal, r.H0, r.H1} {
		if s := h.Support(); len(s) > 0 && s[len(s)-1] > max {
			max = s[len(s)-1]
		}
	}
	for e := 0; e <= max; e++ {
		fmt.Printf("%-8d %-10.4f %-10.4f %-10.4f\n", e, r.Nominal.P(e), r.H0.P(e), r.H1.P(e))
	}
	fmt.Printf("P(fail) nominal=%.4f H0=%.4f H1=%.4f\n", r.FailNominal, r.FailH0, r.FailH1)
	fmt.Printf("TV distance(H0,H1)=%.4f; fixed-sample queries @1%% error: %d\n", r.TVDistance, r.FixedSamples)
	return nil
}

func runE5(seed uint64) error {
	r, err := experiments.RunAttack(context.Background(), transcript.Spec{Attack: "groupbased", Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("4x10 array, %d groups, key %d bits\n", r.Groups, r.EnrolledKeyBits)
	fmt.Printf("groups resolved : %d/%d\n", r.Resolved, r.Groups)
	fmt.Printf("full key        : recovered=%v in %d oracle queries\n", r.Recovered, r.Queries)
	return nil
}

func runE6(seed uint64) error {
	r, err := experiments.RunAttack(context.Background(), transcript.Spec{Attack: "masking", Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("base pair bits recovered: %d; key bits: %d\n", r.BaseBits, r.EnrolledKeyBits)
	fmt.Printf("key recovered=%v in %d oracle queries\n", r.Recovered, r.Queries)
	return nil
}

func runE7(seed uint64) error {
	r, err := experiments.RunAttack(context.Background(), transcript.Spec{Attack: "chain", Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("overlapping chain: %d bits; max hypothesis set: 2^b = %d\n", r.EnrolledKeyBits, r.MaxHypotheses)
	fmt.Printf("key recovered=%v in %d oracle queries\n", r.Recovered, r.Queries)
	return nil
}

func runE8(seed uint64) error {
	for _, exp := range []bool{false, true} {
		r, err := experiments.RunAttack(context.Background(), transcript.Spec{Attack: "seqpair", Seed: seed, Expurgate: exp})
		if err != nil {
			return err
		}
		code := "plain BCH"
		if exp {
			code = "expurgated BCH"
		}
		fmt.Printf("%-15s: %d bits, exact=%v up-to-complement=%v ambiguous=%v, %d queries\n",
			code, r.EnrolledKeyBits, r.Recovered, r.UpToComplement, r.Ambiguous, r.Queries)
	}
	return nil
}

func runE9(seed uint64) error {
	r, err := experiments.RunAttack(context.Background(), transcript.Spec{Attack: "tempco", Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("cooperating pairs      : %d (skipped %d in-interval at ambient)\n", r.CoopPairs, r.Skipped)
	fmt.Printf("relations recovered    : %d (%d correct)\n", r.RelationsFound, r.RelationsRight)
	fmt.Printf("absolute mask-good bits: %d (%d correct)\n", r.MaskBitsFound, r.MaskBitsRight)
	fmt.Printf("oracle queries         : %d\n", r.Queries)
	return nil
}

func runE11(seed uint64) error {
	rows := experiments.EntropyAccounting(seed, []float64{0.2, 0.4, 0.6, 1.0, 1.5, 2.0})
	if rows == nil {
		return fmt.Errorf("entropy accounting failed")
	}
	fmt.Printf("total entropy upper bound log2(128!) = %.1f bits\n", rows[0].TotalBits)
	fmt.Printf("%-14s %-8s %-14s %-10s\n", "threshold MHz", "groups", "entropy bits", "key bits")
	for _, r := range rows {
		fmt.Printf("%-14.2f %-8d %-14.2f %-10d\n", r.ThresholdMHz, r.Groups, r.EntropyBits, r.KeyBits)
	}
	return nil
}

func runE12(seed uint64) error {
	r, err := experiments.FuzzyResistance(seed, 60)
	if err != nil {
		return err
	}
	fmt.Printf("single-manipulation distinguishing advantage:\n")
	fmt.Printf("  LISA (sequential pairing): %.3f   <- the attack's signal\n", r.SeqPairAdvantage)
	fmt.Printf("  fuzzy extractor          : %.3f   <- no side channel\n", r.FuzzyAdvantage)
	fmt.Printf("(%d oracle queries total)\n", r.Queries)
	return nil
}

func runA1(seed uint64) error {
	r, err := experiments.AblationStoragePolicy(seed, 20)
	if err != nil {
		return err
	}
	fmt.Printf("sorted storage     : %.3f of enrolled bits are 1 (full direct leakage)\n", r.SortedOnesFraction)
	fmt.Printf("randomized storage : %.3f of enrolled bits are 1 (no leakage)\n", r.RandomizedOnesFraction)
	return nil
}

func runA2(seed uint64) error {
	r, err := experiments.AblationStrategy(seed)
	if err != nil {
		return err
	}
	fmt.Printf("sequential (SPRT) distinguisher: %d oracle queries\n", r.SequentialQueries)
	fmt.Printf("fixed-sample distinguisher     : %d oracle queries\n", r.FixedSampleQueries)
	fmt.Printf("both recovered the key         : %v\n", r.BothRecovered)
	return nil
}

func runA4(seed uint64) error {
	rows, err := experiments.AblationOffsetSize(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-12s %-12s %-10s %-10s\n", "offset", "p(correct)", "p(wrong)", "queries", "recovered")
	for _, r := range rows {
		fmt.Printf("%-8d %-12.3f %-12.3f %-10d %-10v\n", r.InjectErrors, r.PNominal, r.PElevated, r.Queries, r.Recovered)
	}
	return nil
}

func runR1(seed uint64) error {
	r, err := experiments.MeasureAttackSuccess(context.Background(), seed*1000, 5, 0)
	if err != nil {
		return err
	}
	fmt.Printf("exact-recovery rates over %d devices per attack:\n", r.Seeds)
	fmt.Printf("  §VI-A sequential pairing : %.2f\n", r.SeqPair)
	fmt.Printf("  §VI-C group-based        : %.2f\n", r.GroupBased)
	fmt.Printf("  §VI-D distiller+masking  : %.2f\n", r.Masking)
	fmt.Printf("  §VI-D distiller+chain    : %.2f\n", r.Chain)
	fmt.Printf("  §VI-B relation accuracy  : %.2f\n", r.TempCoRel)
	return nil
}
