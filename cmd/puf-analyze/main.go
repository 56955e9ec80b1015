// Command puf-analyze computes the standard PUF quality metrics of the
// paper's Sections II-III over a population of simulated devices:
// reliability (intra-distance), uniqueness (inter-distance), bias and
// entropy accounting.
//
// Usage:
//
//	puf-analyze [-devices N] [-regens M] [-seed S] [-rows R] [-cols C]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bitvec"
	"repro/internal/metrics"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// config is one parsed, validated invocation.
type config struct {
	devices, regens int
	seed            uint64
	rows, cols      int
}

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	pairs := pairing.ChainPairs(cfg.rows, cfg.cols, false)
	var references []bitvec.Vector
	var intraSum float64
	for dev := 0; dev < cfg.devices; dev++ {
		s := cfg.seed + uint64(dev)*13
		arr := silicon.NewArray(silicon.DefaultConfig(cfg.rows, cfg.cols), rng.New(s))
		nm := arr.NewNoise(rng.New(s + 1))
		env := arr.Config().NominalEnv()
		ref := pairing.Responses(arr.MeasureAveragedWith(env, nm, 15), pairs)
		references = append(references, ref)
		var regenerations []bitvec.Vector
		for r := 0; r < cfg.regens; r++ {
			regenerations = append(regenerations, pairing.Responses(arr.MeasureAllWith(env, nm), pairs))
		}
		intra, err := metrics.IntraDistance(ref, regenerations)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		intraSum += intra
	}
	inter, err := metrics.InterDistance(references)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bias := metrics.Bias(references)

	n := cfg.rows * cfg.cols
	fmt.Printf("population          : %d devices, %dx%d arrays, %d chain-pair bits\n", cfg.devices, cfg.rows, cfg.cols, len(pairs))
	fmt.Printf("reliability (intra) : %.4f mean fractional HD (0 = ideal)\n", intraSum/float64(cfg.devices))
	fmt.Printf("uniqueness  (inter) : %.4f mean fractional HD (0.5 = ideal)\n", inter)
	fmt.Printf("bias                : %.4f fraction of ones (0.5 = ideal)\n", bias)
	fmt.Printf("Shannon entropy/bit : %.4f\n", metrics.ShannonEntropyPerBit(bias))
	fmt.Printf("min-entropy/bit     : %.4f\n", metrics.MinEntropyPerBit(bias))
	fmt.Printf("total order entropy : log2(%d!) = %.1f bits (paper §II)\n", n, metrics.TotalOrderEntropyBits(n))
}

// parseArgs parses and validates the command line, printing any error
// to stderr; the caller exits 2 on a non-nil error (0 for -h).
func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("puf-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&c.devices, "devices", 20, "population size")
	fs.IntVar(&c.regens, "regens", 20, "regenerations per device for reliability")
	fs.Uint64Var(&c.seed, "seed", 1, "master seed")
	fs.IntVar(&c.rows, "rows", 8, "array rows")
	fs.IntVar(&c.cols, "cols", 16, "array columns")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	var err error
	switch {
	case c.devices < 2:
		err = fmt.Errorf("-devices %d: want >= 2", c.devices)
	case c.regens < 1:
		err = fmt.Errorf("-regens %d: want >= 1", c.regens)
	case c.rows < 1:
		err = fmt.Errorf("-rows %d: want >= 1", c.rows)
	case c.cols < 1:
		err = fmt.Errorf("-cols %d: want >= 1", c.cols)
	case c.rows*c.cols < 2:
		err = fmt.Errorf("-rows %d -cols %d: want at least 2 oscillators for one chain-pair bit", c.rows, c.cols)
	}
	if err != nil {
		fmt.Fprintln(stderr, "puf-analyze:", err)
	}
	return c, err
}
