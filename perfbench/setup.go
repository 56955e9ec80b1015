package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/campaign"
)

// Set-up is timed in fresh processes, so every repetition is cold: the
// BCH tables, the registry, the device pool and the first enrollment are
// all paid again. The benchmark starts its own executable with these
// variables set; the child sets the workload up, prints setupReady, and
// tears down.
const (
	setupEnv    = "PERFBENCH_SETUP"     // workload to set up
	setupArgEnv = "PERFBENCH_SETUP_ARG" // its input: a seed or a state directory
	setupReady  = "ready"
)

// setupChild runs the set-up a child process was started for and
// reports whether the process is such a child. main and the tests call
// it first.
func setupChild() bool {
	workload := os.Getenv(setupEnv)
	if workload == "" {
		return false
	}
	if err := coldSetup(workload, os.Getenv(setupArgEnv)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		os.Exit(1)
	}
	return true
}

// coldSetup is one workload's set-up, in a process that has done
// nothing else: attack-serial attacks one device with each attack on a
// fresh pool; daemon-campaign starts a daemon over a state directory
// with checkpoint history (New, Recover, listen, /healthz);
// fleet-sweep makes the workload's first fleet call.
func coldSetup(workload, arg string) error {
	ctx := context.Background()
	switch workload {
	case "attack-serial", "fleet-sweep":
		seed, err := strconv.ParseUint(arg, 10, 64)
		if err != nil {
			return err
		}
		if workload == "fleet-sweep" {
			_, _, err = fleetRun(ctx, fleetSpec(seed, fleetSeedsPerCall))
		} else {
			err = attackAll(ctx, seed, campaign.NewPool())
		}
		if err != nil {
			return err
		}
		fmt.Println(setupReady)
	case "daemon-campaign":
		d, err := startDaemon(arg)
		if err != nil {
			return err
		}
		fmt.Println(setupReady)
		d.stop()
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	return nil
}

// setups times a run's set-up processes. They run between the cycles
// of the closed loop, spread over the measured time, so their median
// reflects the host over the whole run rather than over its first
// second.
type setups struct {
	cfg config
	// arg returns the input of set-up rep.
	arg  func(rep int) (string, error)
	secs []float64
}

// upTo starts set-up processes one after another until frac of
// cfg.setupReps() have run; each time is from the start to the ready
// line. Every process has ended when it returns.
func (s *setups) upTo(frac float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for float64(len(s.secs)) < min(frac, 1)*float64(s.cfg.setupReps()) {
		a, err := s.arg(len(s.secs))
		if err != nil {
			return err
		}
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), setupEnv+"="+s.cfg.workload, setupArgEnv+"="+a)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return err
		}
		line, _ := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		io.Copy(io.Discard, out)
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("set-up process: %w", err)
		}
		if line != setupReady+"\n" {
			return fmt.Errorf("set-up process printed %q", line)
		}
		s.secs = append(s.secs, d.Seconds())
	}
	return nil
}
