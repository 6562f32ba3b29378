package cli

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"parimg"
	"parimg/internal/errs"
)

func runCapture(t *testing.T, name string, fn func() error) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	code := runTo(&buf, name, fn)
	return code, buf.String()
}

func TestRunSuccess(t *testing.T) {
	code, out := runCapture(t, "imgcc", func() error { return nil })
	if code != 0 || out != "" {
		t.Fatalf("code %d, stderr %q", code, out)
	}
}

func TestRunErrorContract(t *testing.T) {
	code, out := runCapture(t, "imgcc", func() error { return errors.New("boom") })
	if code != 1 {
		t.Fatalf("code %d, want 1", code)
	}
	if out != "imgcc: boom\n" {
		t.Fatalf("stderr %q", out)
	}
}

func TestRunRecoversPanicsWithoutTrace(t *testing.T) {
	code, out := runCapture(t, "imghist", func() error { panic("index out of range") })
	if code != 1 {
		t.Fatalf("code %d, want 1", code)
	}
	if strings.Count(out, "\n") != 1 || !strings.HasPrefix(out, "imghist: internal error:") {
		t.Fatalf("want one-line internal error, got %q", out)
	}
	if strings.Contains(out, "goroutine") {
		t.Fatalf("stack trace leaked: %q", out)
	}
}

// TestRunCommandFailureModes drives each of the commands' real failure
// modes through the Run contract: every one must yield exit code 1 and a
// single "name: ..." stderr line, never a panic trace.
func TestRunCommandFailureModes(t *testing.T) {
	cases := []struct {
		name string
		fn   func() error
		kind error // optional errs sentinel the failure must match
	}{
		{"hostile PGM header", func() error {
			_, err := parimg.ReadPGM(strings.NewReader("P5\n0 0\n255\n"))
			return err
		}, errs.ErrGeometry},
		{"truncated PGM", func() error {
			_, err := parimg.ReadPGM(strings.NewReader("P5\n4 4\n255\nab"))
			return err
		}, errs.ErrBadInput},
		{"bad -p", func() error {
			_, err := parimg.NewSimulator(3, parimg.CM5)
			return err
		}, errs.ErrGeometry},
		{"bad -machine", func() error {
			_, err := parimg.MachineByName("pdp11")
			return err
		}, nil},
		{"bad -k on simulator", func() error {
			sim, err := parimg.NewSimulator(4, parimg.CM5)
			if err != nil {
				return err
			}
			im, err := parimg.GeneratePattern(parimg.Cross, 64)
			if err != nil {
				return err
			}
			_, err = sim.Histogram(context.Background(), im, 3)
			return err
		}, errs.ErrGreyRange},
		{"grey pixel over k", func() error {
			im, err := parimg.RandomGrey(32, 16, 1)
			if err != nil {
				return err
			}
			_, err = parimg.HistogramSequential(im, 4)
			return err
		}, errs.ErrGreyRange},
		{"bad -random density", func() error {
			_, err := parimg.RandomBinary(64, 1.5, 1)
			return err
		}, errs.ErrBadInput},
		{"bad -n", func() error {
			_, err := parimg.GeneratePattern(parimg.Cross, -1)
			return err
		}, errs.ErrGeometry},
		{"label overflow", func() error {
			_, err := parimg.Label(context.Background(), &parimg.Image{N: parimg.MaxSide + 1}, parimg.LabelOptions{})
			return err
		}, errs.ErrLabelOverflow},
	}
	for _, c := range cases {
		var seen error
		code, out := runCapture(t, "imgcc", func() error {
			seen = c.fn()
			return seen
		})
		if seen == nil {
			t.Errorf("%s: failure mode did not fail", c.name)
			continue
		}
		if c.kind != nil && !errors.Is(seen, c.kind) {
			t.Errorf("%s: error %v is not %v", c.name, seen, c.kind)
		}
		if code != 1 {
			t.Errorf("%s: exit code %d, want 1", c.name, code)
		}
		if strings.Count(out, "\n") != 1 || !strings.HasPrefix(out, "imgcc: ") {
			t.Errorf("%s: want one-line imgcc stderr message, got %q", c.name, out)
		}
	}
}

// TestRunTimeoutExitCode pins the third leg of the exit-code contract:
// deadline and cancellation failures exit with code 2 and a one-line
// human-readable message, distinguishable (for scripts) from the input and
// internal errors that exit 1.
func TestRunTimeoutExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"deadline", errs.Deadline("imgcc.label", 1500*time.Millisecond, context.DeadlineExceeded, "run exceeded the -timeout"),
			"imgcc: timed out after 1.5s\n"},
		{"canceled", errs.Canceled("imgcc.label", 2*time.Second, "interrupted"),
			"imgcc: canceled after 2s\n"},
		{"bare deadline sentinel", errs.ErrDeadline, "imgcc: timed out\n"},
	}
	for _, c := range cases {
		code, out := runCapture(t, "imgcc", func() error { return c.err })
		if code != 2 {
			t.Errorf("%s: exit code %d, want 2", c.name, code)
		}
		if out != c.want {
			t.Errorf("%s: stderr %q, want %q", c.name, out, c.want)
		}
	}
	// A real expired context routed through the public API must take the
	// same path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, out := runCapture(t, "imgcc", func() error {
		im, err := parimg.GeneratePattern(parimg.Cross, 64)
		if err != nil {
			return err
		}
		_, err = parimg.Label(ctx, im, parimg.LabelOptions{})
		return err
	})
	if code != 2 {
		t.Errorf("public-API cancellation: exit code %d, want 2", code)
	}
	if !strings.HasPrefix(out, "imgcc: canceled") {
		t.Errorf("public-API cancellation: stderr %q", out)
	}
}
