package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/transcript"
)

// cliRun is what one puf-attack invocation observes.
type cliRun struct {
	spec        attack.Spec
	truthDigest string
	key         string
	queries     []int // total, then per phase
}

// attackCLI parses args as the command line would and runs the attack.
func attackCLI(t *testing.T, args ...string) cliRun {
	t.Helper()
	cfg, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatalf("parseArgs(%q): %v", args, err)
	}
	target, truth, err := setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(context.Background(), cfg, target, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(truth.String()))
	r := cliRun{spec: target.Spec(), truthDigest: hex.EncodeToString(sum[:]),
		key: rep.Key.String(), queries: []int{rep.Queries}}
	for _, ph := range rep.Phases {
		r.queries = append(r.queries, ph.Queries)
	}
	return r
}

// TestAttackMatchesTranscript pins the CLI's wiring: the serial run
// attacks the same reference device as transcript.Run, and the batched
// run keeps the CLI's own fork seed (seed^0xba7c4), whose query counts
// at -seed 1 -workers 4 are recorded below.
func TestAttackMatchesTranscript(t *testing.T) {
	batched := map[string][]int{ // total, then per phase
		"seqpair":    {300, 48, 252, 0},
		"tempco":     {100, 48, 52},
		"groupbased": {352, 352, 0},
		"masking":    {80, 80, 0},
		"chain":      {302, 302, 0},
	}
	for _, name := range transcript.Attacks() {
		t.Run(name, func(t *testing.T) {
			spec := transcript.Spec{Attack: name, Seed: 1, Expurgate: name == "seqpair"}
			tr, err := transcript.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := transcript.Enroll(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := []int{tr.Queries}
			for _, ph := range tr.Phases {
				want = append(want, ph.Queries)
			}

			got := attackCLI(t, "-attack", name, "-seed", "1")
			// Spec.Code is a fresh *BCH per enrollment: compare by value.
			if fmt.Sprint(got.spec) != fmt.Sprint(ref.Spec()) || got.truthDigest != tr.EnrolledKeyDigest {
				t.Fatalf("device %+v key digest %s; transcript device %+v key digest %s",
					got.spec, got.truthDigest, ref.Spec(), tr.EnrolledKeyDigest)
			}
			if got.key != tr.Key || !reflect.DeepEqual(got.queries, want) {
				t.Fatalf("serial: key %q queries %v; transcript key %q queries %v",
					got.key, got.queries, tr.Key, want)
			}

			b := attackCLI(t, "-attack", name, "-seed", "1", "-workers", "4")
			if !reflect.DeepEqual(b.queries, batched[name]) {
				t.Fatalf("-workers 4: queries %v, want %v", b.queries, batched[name])
			}
			if b.key != got.key {
				t.Fatalf("-workers 4 recovered %q, serial %q", b.key, got.key)
			}
		})
	}
}

var badArgs = [][]string{
	{"-strategy", "bogus"},
	{"-budget", "-5"},
	{"-workers", "-3"},
}

func TestParseArgsRejectsBadValues(t *testing.T) {
	for _, args := range badArgs {
		var stderr strings.Builder
		if _, err := parseArgs(args, &stderr); err == nil {
			t.Fatalf("%q accepted", args)
		}
		if !strings.Contains(stderr.String(), args[0]) {
			t.Fatalf("%q: message %q does not name the flag", args, stderr.String())
		}
	}
	if _, err := parseArgs([]string{"-strategy", "fixed", "-budget", "0", "-workers", "0"}, io.Discard); err != nil {
		t.Fatalf("valid values rejected: %v", err)
	}
}

// TestBadValuesExit2 runs main in a child process: each bad value must
// exit 2 before any device is enrolled.
func TestBadValuesExit2(t *testing.T) {
	if args := os.Getenv("PUF_ATTACK_ARGS"); args != "" {
		os.Args = append([]string{"puf-attack"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range badArgs {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadValuesExit2$")
		cmd.Env = append(os.Environ(), "PUF_ATTACK_ARGS="+strings.Join(args, " "))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%q: err %v, want exit status 2; output:\n%s", args, err, out)
		}
		if strings.Contains(string(out), "enrolled") {
			t.Fatalf("%q enrolled a device before rejecting:\n%s", args, out)
		}
	}
}
