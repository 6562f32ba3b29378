package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStreamOnlyFlagsNeedStream: the flags only the -stream path reads
// must fail a resident run with a message naming the flag, before any
// labeling, instead of being silently dropped with exit 0 and none of the
// requested files written.
func TestStreamOnlyFlagsNeedStream(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.pgm")
	census := filepath.Join(dir, "c.json")
	ckpt := filepath.Join(dir, "ck")
	resident := []string{"-pattern", "dual-spiral", "-n", "64", "-backend", "par", "-top", "0"}
	cases := []struct {
		flag string
		args []string
	}{
		{"out", []string{"-out", out}},
		{"census-json", []string{"-census-json", census}},
		{"checkpoint", []string{"-checkpoint", ckpt}},
		{"checkpoint-every", []string{"-checkpoint-every", "4"}},
		{"resume", []string{"-resume"}},
		{"band-rows", []string{"-band-rows", "8"}},
		{"band-rows", []string{"-backend", "seq", "-band-rows", "8"}},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("imgcc", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		err := runArgs(fs, append(append([]string{}, resident...), c.args...))
		if err == nil {
			t.Errorf("%v: resident run accepted -%s", c.args, c.flag)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "-"+c.flag+" ") || strings.Contains(msg, "\n") {
			t.Errorf("%v: error %q does not name -%s on one line", c.args, msg, c.flag)
		}
	}
	for _, p := range []string{out, census, ckpt} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("rejected run left %s behind (stat: %v)", p, err)
		}
	}
	fs := flag.NewFlagSet("imgcc", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := runArgs(fs, resident); err != nil {
		t.Errorf("resident run without stream flags: %v", err)
	}
}
