package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseArgsRejectsBadValues pins the usage errors main exits 2 on:
// a population or grid the metrics cannot be computed over.
func TestParseArgsRejectsBadValues(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the message
	}{
		{[]string{"-devices", "1"}, "-devices"},
		{[]string{"-regens", "0"}, "-regens"},
		{[]string{"-rows", "0"}, "-rows"},
		{[]string{"-rows", "-1"}, "-rows"},
		{[]string{"-cols", "0"}, "-cols"},
		{[]string{"-rows", "1", "-cols", "1"}, "2 oscillators"},
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

	cfg, err := parseArgs([]string{"-devices", "2", "-regens", "1", "-rows", "1", "-cols", "2"}, io.Discard)
	if err != nil {
		t.Fatalf("valid values rejected: %v", err)
	}
	if cfg.devices != 2 || cfg.regens != 1 || cfg.rows != 1 || cfg.cols != 2 {
		t.Fatalf("parsed config %+v", cfg)
	}
}
