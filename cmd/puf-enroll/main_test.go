package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseArgsRejectsBadValues pins the usage errors main exits 2 on.
func TestParseArgsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-construction", "foo"},
		{"-construction", ""},
	} {
		var stderr strings.Builder
		if _, err := parseArgs(args, &stderr); err == nil {
			t.Fatalf("%q accepted", args)
		}
		if !strings.Contains(stderr.String(), "-construction") {
			t.Fatalf("%q: message %q does not name the flag", args, stderr.String())
		}
	}
	for name := range constructions {
		cfg, err := parseArgs([]string{"-construction", name, "-seed", "3", "-hex"}, io.Discard)
		if err != nil {
			t.Fatalf("%s rejected: %v", name, err)
		}
		if cfg.construction != name || cfg.seed != 3 || !cfg.dumpHex {
			t.Fatalf("parsed config %+v", cfg)
		}
	}
}
