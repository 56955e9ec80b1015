package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// TestParseArgsRejectsBadValues pins the local/client contract: every
// spec the daemon would answer 400 is rejected before either mode runs.
func TestParseArgsRejectsBadValues(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the message
	}{
		{[]string{}, "no task"},
		{[]string{"-task", "bogus"}, "unknown task"},
		{[]string{"-task", "seqpair-attack", "-seeds", "0"}, "seeds"},
		{[]string{"-task", "seqpair-attack", "-workers", "-3"}, "workers"},
		{[]string{"-task", "seqpair-attack", "-shard-size", "-4"}, "shard_size"},
		{[]string{"-task", "seqpair-attack", "-timeout", "-1s"}, "-timeout"},
	}
	for _, c := range cases {
		var stderr strings.Builder
		if _, err := parseArgs(c.args, &stderr); err == nil {
			t.Fatalf("%q accepted", c.args)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Fatalf("%q: message %q does not mention %q", c.args, stderr.String(), c.want)
		}
	}

	cfg, err := parseArgs([]string{"-task", "seqpair-attack", "-seeds", "2", "-workers", "0",
		"-shard-size", "0", "-timeout", "1m", "-addr", "http://localhost:8787"}, io.Discard)
	if err != nil {
		t.Fatalf("valid values rejected: %v", err)
	}
	if cfg.spec.Task != "seqpair-attack" || cfg.spec.Seeds != 2 || cfg.timeout != time.Minute || cfg.addr == "" {
		t.Fatalf("parsed config %+v", cfg)
	}
	if _, err := parseArgs([]string{"-list"}, io.Discard); err != nil {
		t.Fatalf("-list needs no spec: %v", err)
	}
}
