package cli

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// helpFlags runs `go run ./cmd/<name> -h` from the module root and parses
// the usage output into a flag-name -> usage-text map. The flag package
// prints each flag as "  -name type\n    \tusage..." (or "  -name\n" for
// booleans).
func helpFlags(t *testing.T, name string) map[string]string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/"+name, "-h")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stderr = &out
	cmd.Stdout = &out
	_ = cmd.Run() // -h exits 2; the usage text is what matters

	flags := make(map[string]string)
	var cur string
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "  -"):
			cur = strings.Fields(line)[0][1:]
		case strings.HasPrefix(line, "    \t") && cur != "":
			flags[cur] += strings.TrimPrefix(line, "    \t")
		}
	}
	if len(flags) == 0 {
		t.Fatalf("no flags parsed from %s -h output:\n%s", name, out.String())
	}
	return flags
}

// TestSharedFlagHelpIsIdentical pins the satellite guarantee that the
// commands agree on the help text of every flag they share: any flag name
// registered by more than one command must print the same usage string in
// each, so the centralized constants in this package cannot drift apart
// again.
func TestSharedFlagHelpIsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three commands; skipped in -short mode")
	}
	commands := []string{"imgcc", "imghist", "imgccd"}
	perCmd := make(map[string]map[string]string, len(commands))
	for _, c := range commands {
		perCmd[c] = helpFlags(t, c)
	}
	seen := make(map[string]string) // flag -> "cmd\x00usage" of first sighting
	for _, c := range commands {
		for f, usage := range perCmd[c] {
			if prev, ok := seen[f]; ok {
				firstCmd, firstUsage, _ := strings.Cut(prev, "\x00")
				if usage != firstUsage {
					t.Errorf("flag -%s help drifted:\n  %s: %q\n  %s: %q",
						f, firstCmd, firstUsage, c, usage)
				}
			} else {
				seen[f] = c + "\x00" + usage
			}
		}
	}

	// The canonical shared flags must actually be present where expected.
	// The server registers its own flag family (-addr, -engines, ...) and
	// deliberately not -workers, whose batch semantics it splits across
	// engines; only the batch commands are held to the batch set.
	for _, c := range []string{"imgcc", "imghist"} {
		for _, f := range []string{"workers", "metrics"} {
			if _, ok := perCmd[c][f]; !ok {
				t.Errorf("%s does not register the shared -%s flag", c, f)
			}
		}
	}
	for _, f := range []string{"addr", "engines", "engine-workers", "oversub", "queue", "request-deadline"} {
		if _, ok := perCmd["imgccd"][f]; !ok {
			t.Errorf("imgccd does not register the -%s flag", f)
		}
	}
	for _, c := range []string{"imgcc", "imghist"} {
		for _, f := range []string{"backend", "pattern", "machine", "n", "p", "in", "darpa", "random", "seed"} {
			if _, ok := perCmd[c][f]; !ok {
				t.Errorf("%s does not register the shared -%s flag", c, f)
			}
		}
	}
	// The out-of-core streaming family is imgcc-only.
	for _, f := range []string{"stream", "band-rows", "out",
		"checkpoint", "checkpoint-every", "resume", "census-json"} {
		if _, ok := perCmd["imgcc"][f]; !ok {
			t.Errorf("imgcc does not register the -%s flag", f)
		}
	}
}
