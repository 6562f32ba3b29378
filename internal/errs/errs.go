// Package errs is the typed error taxonomy of the repository's public
// boundary. Every validation failure that a caller can provoke with bad
// input — a malformed image, an impossible processor count, an out-of-range
// grey level, an image too large for the 32-bit label space — is reported
// as an *InputError carrying one of the sentinel kinds below, so callers
// can dispatch with errors.Is on either the specific kind or the ErrBadInput
// root without parsing message strings.
//
// The contract, repo-wide: invalid *caller input* returns an error; a
// violated *internal invariant* (a precondition already validated by the
// layer above) panics, and every such panic site carries an
// "Invariant panic:" comment. The bdm runtime additionally converts any
// panic escaping an SPMD processor body into an error wrapping ErrAborted,
// so no panic crosses the public API even if an invariant is wrong.
//
// A second family of sentinels — ErrAborted, ErrCanceled, ErrDeadline —
// describes how an accepted run *ended* rather than what the caller passed
// in. They are carried by *RunError and deliberately sit outside the
// ErrBadInput subtree: the same input may succeed on retry.
package errs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// MaxSide is the largest supported image side. Initial labels are the
// pixel's global row-major index plus one, stored in a uint32: the last
// pixel of an n x n image gets label n*n - 1 + 1 = n^2, so n^2 must fit in
// a uint32. 65535^2 = 4294836225 < 2^32, while 65536^2 = 2^32 wraps to 0 —
// hence n <= 65535.
const MaxSide = 65535

// Taxonomy sentinels. Every *InputError wraps ErrBadInput plus at most one
// of the more specific kinds, so errors.Is(err, ErrBadInput) matches any
// input-validation failure.
var (
	// ErrBadInput is the root of the taxonomy: some caller-supplied input
	// was invalid. All other sentinels imply it.
	ErrBadInput = errors.New("bad input")
	// ErrGeometry marks impossible image/processor-grid geometry: a
	// non-positive or oversized image side, a pixel buffer whose length
	// disagrees with the declared side, a processor count that is not a
	// positive power of two, or an image that does not tile evenly on the
	// processor grid.
	ErrGeometry = errors.New("invalid geometry")
	// ErrGreyRange marks grey-level domain violations: a pixel with grey
	// level outside [0, k) for the requested k-bucket histogram.
	ErrGreyRange = errors.New("grey level out of range")
	// ErrLabelOverflow marks images whose side exceeds MaxSide, so the
	// row-major seed labels would wrap the uint32 label space and collide
	// (or reach the reserved background value 0).
	ErrLabelOverflow = errors.New("label space overflow")
	// ErrCheckpointCorrupt marks a streaming checkpoint file that failed
	// structural validation: wrong magic or version, truncation, or a
	// checksum mismatch (a bit flip anywhere in the record). The file
	// cannot be trusted for resume; rerun from scratch.
	ErrCheckpointCorrupt = errors.New("checkpoint corrupt")
	// ErrCheckpointMismatch marks a structurally valid streaming checkpoint
	// that was recorded for a different run: the input's header bytes or
	// geometry drifted, or the resume options (connectivity, mode, band
	// height) disagree with the ones the checkpoint was written under.
	// Resuming it would silently produce wrong pixels, so it is refused.
	ErrCheckpointMismatch = errors.New("checkpoint mismatch")
)

// Runtime sentinels. Unlike the input taxonomy above these describe how an
// accepted run *ended*, not what the caller passed in: they are carried by
// *RunError and are deliberately not under ErrBadInput, because retrying the
// same input may well succeed.
var (
	// ErrAborted marks a run torn down by the runtime itself: a processor
	// body panicked (or a fault injector made one panic) and the remaining
	// processors were released from their barriers.
	ErrAborted = errors.New("execution aborted")
	// ErrCanceled marks a run stopped because the caller's context was
	// canceled. errors.Is also matches context.Canceled when the run was
	// stopped by a canceled context.
	ErrCanceled = errors.New("execution canceled")
	// ErrDeadline marks a run stopped by a deadline: either the caller's
	// context deadline expired (errors.Is also matches
	// context.DeadlineExceeded) or the barrier watchdog declared the run
	// stalled.
	ErrDeadline = errors.New("deadline exceeded")
	// ErrClosed marks a call made after Close: the engine, pool or server
	// the caller is holding has been shut down and accepts no further runs.
	// Like the other runtime sentinels it sits outside ErrBadInput — the
	// same call would have succeeded on a live instance.
	ErrClosed = errors.New("closed")
)

// InputError is a structured input-validation failure: the operation that
// rejected the input, the taxonomy kind, the offending geometry context
// (n, p, k; zero when not applicable), and a human-readable detail line.
type InputError struct {
	// Op is the rejecting operation, e.g. "parimg.Histogram".
	Op string
	// Kind is the taxonomy sentinel: ErrGeometry, ErrGreyRange,
	// ErrLabelOverflow, or ErrBadInput for failures with no finer kind.
	Kind error
	// N, P, K are the image side, processor count and grey-level count in
	// play when the input was rejected; fields are zero when not relevant.
	N, P, K int
	// Detail describes the specific violation.
	Detail string
}

// Error formats the failure as "op: detail (kind; n=.. p=.. k=..)".
func (e *InputError) Error() string {
	var b strings.Builder
	if e.Op != "" {
		b.WriteString(e.Op)
		b.WriteString(": ")
	}
	b.WriteString(e.Detail)
	var ctx []string
	if e.Kind != nil && e.Kind != ErrBadInput {
		ctx = append(ctx, e.Kind.Error())
	}
	if e.N != 0 {
		ctx = append(ctx, fmt.Sprintf("n=%d", e.N))
	}
	if e.P != 0 {
		ctx = append(ctx, fmt.Sprintf("p=%d", e.P))
	}
	if e.K != 0 {
		ctx = append(ctx, fmt.Sprintf("k=%d", e.K))
	}
	if len(ctx) > 0 {
		b.WriteString(" (")
		b.WriteString(strings.Join(ctx, "; "))
		b.WriteString(")")
	}
	return b.String()
}

// Unwrap exposes the taxonomy: the specific kind plus the ErrBadInput root,
// so errors.Is matches both.
func (e *InputError) Unwrap() []error {
	if e.Kind == nil || e.Kind == ErrBadInput {
		return []error{ErrBadInput}
	}
	return []error{e.Kind, ErrBadInput}
}

// Geometry returns an ErrGeometry input error. n and p carry the geometry
// context (pass 0 when not applicable).
func Geometry(op string, n, p int, format string, args ...any) error {
	return &InputError{Op: op, Kind: ErrGeometry, N: n, P: p, Detail: fmt.Sprintf(format, args...)}
}

// GreyRange returns an ErrGreyRange input error with grey-level context k.
func GreyRange(op string, k int, format string, args ...any) error {
	return &InputError{Op: op, Kind: ErrGreyRange, K: k, Detail: fmt.Sprintf(format, args...)}
}

// LabelOverflow returns an ErrLabelOverflow input error for an n-sided
// image exceeding MaxSide.
func LabelOverflow(op string, n int) error {
	return &InputError{Op: op, Kind: ErrLabelOverflow, N: n,
		Detail: fmt.Sprintf("image side %d exceeds the uint32 label space (max %d)", n, MaxSide)}
}

// Bad returns a plain ErrBadInput input error for failures with no finer
// taxonomy kind (an unknown flag value, a malformed file, a bad option).
func Bad(op, format string, args ...any) error {
	return &InputError{Op: op, Kind: ErrBadInput, Detail: fmt.Sprintf(format, args...)}
}

// CheckpointCorrupt returns an ErrCheckpointCorrupt input error for a
// checkpoint file that failed structural validation (truncation, checksum,
// magic/version).
func CheckpointCorrupt(op, format string, args ...any) error {
	return &InputError{Op: op, Kind: ErrCheckpointCorrupt, Detail: fmt.Sprintf(format, args...)}
}

// CheckpointMismatch returns an ErrCheckpointMismatch input error for a
// valid checkpoint recorded under a different input or different resume
// options.
func CheckpointMismatch(op, format string, args ...any) error {
	return &InputError{Op: op, Kind: ErrCheckpointMismatch, Detail: fmt.Sprintf(format, args...)}
}

// RunError is a structured runtime failure: the operation that was running,
// the runtime sentinel describing how it ended, how long it had been running
// when it was stopped (zero when unknown), a human-readable detail line, and
// the underlying cause (a recovered panic value wrapped as an error, or the
// context error that triggered the stop).
type RunError struct {
	// Op is the interrupted operation, e.g. "par.Label".
	Op string
	// Kind is the runtime sentinel: ErrAborted, ErrCanceled or ErrDeadline.
	Kind error
	// After is the elapsed wall time when the run was stopped; zero when
	// the caller did not track it.
	After time.Duration
	// Detail describes the specific failure (which rank panicked, which
	// ranks missed the stalled barrier, ...).
	Detail string
	// Cause is the underlying error: context.Canceled,
	// context.DeadlineExceeded, or the recovered panic value. May be nil.
	Cause error
}

// Error formats the failure as "op: detail (kind; after=..)".
func (e *RunError) Error() string {
	var b strings.Builder
	if e.Op != "" {
		b.WriteString(e.Op)
		b.WriteString(": ")
	}
	b.WriteString(e.Detail)
	var ctx []string
	if e.Kind != nil {
		ctx = append(ctx, e.Kind.Error())
	}
	if e.After > 0 {
		ctx = append(ctx, fmt.Sprintf("after=%v", e.After.Round(time.Millisecond)))
	}
	if len(ctx) > 0 {
		b.WriteString(" (")
		b.WriteString(strings.Join(ctx, "; "))
		b.WriteString(")")
	}
	return b.String()
}

// Unwrap exposes both the runtime sentinel and the underlying cause, so
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled) both
// match a context-canceled run.
func (e *RunError) Unwrap() []error {
	if e.Cause == nil {
		return []error{e.Kind}
	}
	return []error{e.Kind, e.Cause}
}

// Aborted returns an ErrAborted run error. cause carries the recovered
// panic value when there is one (pass nil otherwise).
func Aborted(op string, cause error, format string, args ...any) error {
	return &RunError{Op: op, Kind: ErrAborted, Cause: cause, Detail: fmt.Sprintf(format, args...)}
}

// Canceled returns an ErrCanceled run error for a run stopped after the
// given elapsed time by a canceled context.
func Canceled(op string, after time.Duration, format string, args ...any) error {
	return &RunError{Op: op, Kind: ErrCanceled, After: after, Cause: context.Canceled,
		Detail: fmt.Sprintf(format, args...)}
}

// Deadline returns an ErrDeadline run error for a run stopped after the
// given elapsed time by an expired deadline or a stall watchdog. cause is
// context.DeadlineExceeded for context deadlines, nil for watchdog stalls.
func Deadline(op string, after time.Duration, cause error, format string, args ...any) error {
	return &RunError{Op: op, Kind: ErrDeadline, After: after, Cause: cause,
		Detail: fmt.Sprintf(format, args...)}
}

// Closed returns an ErrClosed run error for a call made on an instance that
// has been shut down.
func Closed(op string) error {
	return &RunError{Op: op, Kind: ErrClosed, Detail: "called after Close"}
}

// FromContext maps a non-nil context error to the matching run error:
// context.Canceled to ErrCanceled, context.DeadlineExceeded to ErrDeadline.
// after is the elapsed run time when the stop was observed.
func FromContext(op string, after time.Duration, err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return Deadline(op, after, err, "context deadline exceeded")
	case errors.Is(err, context.Canceled):
		return Canceled(op, after, "context canceled")
	default:
		// Custom context implementations may return other errors; keep
		// them under ErrCanceled so callers still get a typed sentinel.
		return &RunError{Op: op, Kind: ErrCanceled, After: after, Cause: err,
			Detail: "context done: " + err.Error()}
	}
}
