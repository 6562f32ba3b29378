package cli

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"parimg/internal/obs"
)

func TestWorkersNormalization(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	cases := []struct{ in, want int }{
		{0, p}, {-1, p}, {-100, p}, {1, 1}, {7, 7}, {p, p},
	}
	for _, c := range cases {
		if got := Workers(c.in); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestWorkersFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	w := WorkersFlag(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *w != 0 {
		t.Fatalf("default -workers = %d, want 0", *w)
	}
	if got := Workers(*w); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("normalized default = %d, want GOMAXPROCS", got)
	}

	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	w2 := WorkersFlag(fs2)
	if err := fs2.Parse([]string{"-workers", "5"}); err != nil {
		t.Fatal(err)
	}
	if Workers(*w2) != 5 {
		t.Fatalf("parsed -workers 5 -> %d", Workers(*w2))
	}
}

func TestFlagConstructorsRegisterCanonicalNames(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	WorkersFlag(fs)
	BackendFlag(fs)
	MetricsFlag(fs)
	PatternFlag(fs)
	RandomFlag(fs)
	DarpaFlag(fs)
	InFlag(fs)
	NFlag(fs)
	PFlag(fs)
	MachineFlag(fs)
	SeedFlag(fs)
	for _, name := range []string{
		"workers", "backend", "metrics", "pattern", "random",
		"darpa", "in", "n", "p", "machine", "seed",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("constructor did not register -%s", name)
		}
	}
	if f := fs.Lookup("backend"); f != nil && f.DefValue != "sim" {
		t.Errorf("-backend default = %q, want sim", f.DefValue)
	}
}

func TestImageName(t *testing.T) {
	cases := []struct {
		pattern, in string
		darpa       bool
		want        string
	}{
		{"", "", false, "random"},
		{"dual-spiral", "", false, "dual-spiral"},
		{"", "", true, "darpa"},
		{"dual-spiral", "", true, "darpa"},
		{"dual-spiral", "scene.pgm", true, "scene.pgm"},
	}
	for _, c := range cases {
		if got := ImageName(c.pattern, c.darpa, c.in); got != c.want {
			t.Errorf("ImageName(%q, %v, %q) = %q, want %q",
				c.pattern, c.darpa, c.in, got, c.want)
		}
	}
}

func TestWriteMetrics(t *testing.T) {
	// Empty path is a silent no-op.
	if err := WriteMetrics("", &obs.Metrics{}); err != nil {
		t.Fatalf("WriteMetrics(\"\") = %v, want nil", err)
	}

	r := obs.NewRecorder()
	t0 := r.StartPhase()
	r.EndPhase("work", "", t0)
	m := r.Snapshot()
	m.Command, m.Backend = "test", "par"

	path := filepath.Join(t.TempDir(), "m.json")
	if err := WriteMetrics(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != obs.Schema || back.Command != "test" || len(back.Phases) != 1 {
		t.Errorf("round trip mismatch: %+v", back)
	}

	// An invalid document (phase with unknown parent) must be rejected
	// before anything is written.
	bad := &obs.Metrics{Schema: obs.Schema,
		Phases: []obs.Phase{{Name: "child", Parent: "absent"}}}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := WriteMetrics(badPath, bad); err == nil {
		t.Error("WriteMetrics accepted a document with a dangling parent")
	}
	if _, statErr := os.Stat(badPath); !os.IsNotExist(statErr) {
		t.Error("invalid document was written to disk")
	}
}
