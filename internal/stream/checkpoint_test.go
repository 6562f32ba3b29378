package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"parimg/internal/errs"
	"parimg/internal/fault"
	"parimg/internal/fault/leakcheck"
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// crashAt returns an injector that crashes the pipeline at the band_commit
// site of the given 0-based band index.
func crashAt(band int) *fault.Injector {
	return fault.New(1, fault.Crash, 1).At("band_commit").OnRound(band + 1)
}

// censusKey flattens the resume-invariant part of a Result for equality
// checks: everything except ResumedFrom must match an uninterrupted run.
func censusKey(r *Result) string {
	return fmt.Sprintf("%dx%d c=%d fg=%d bands=%d rows=%d links=%d top=%v",
		r.Width, r.Height, r.Components, r.Foreground, r.Bands, r.BandRows, r.Links, r.Top)
}

// TestResumeByteIdentical is the core crash/resume sweep: kill the census
// pass at every band boundary, resume from the latest durable checkpoint,
// and demand the census and the label PGM come out byte-identical to an
// uninterrupted run — at more than one checkpoint cadence, so resumes
// both at a checkpointed band and several bands past one are covered. The
// 7-row bands stay on one strip; the 32-row bands of the taller scene
// split across the band engine's workers once GOMAXPROCS >= 2, so a
// crashed and resumed band then runs several strips and their seams.
func TestResumeByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	for _, c := range []struct {
		prefix   string
		im       *image.Image
		bandRows int
	}{
		{"", image.DARPAScene(60, 12, 7), 7},
		{"rows32/", image.DARPAScene(128, 12, 7), 32},
	} {
		im, bandRows := c.im, c.bandRows
		pgm := encodePGM(im.Pix, im.N, im.N, 255)
		totalBands := (im.N + bandRows - 1) / bandRows

		base := Options{Conn: image.Conn8, BandRows: bandRows, TopK: 4}
		wantRes, wantPGM := streamLabel(t, pgm, base)

		for _, every := range []int{1, 3} {
			for band := 0; band < totalBands; band++ {
				t.Run(fmt.Sprintf("%severy%d/crash-band%d", c.prefix, every, band), func(t *testing.T) {
					ckpt := filepath.Join(t.TempDir(), "run.ckpt")

					crash := base
					crash.Checkpoint = ckpt
					crash.CheckpointEvery = every
					crash.Fault = crashAt(band)
					var out bytes.Buffer
					_, err := Label(bytes.NewReader(pgm), &out, crash)
					if !errors.Is(err, errs.ErrAborted) {
						t.Fatalf("crashed run error = %v, want ErrAborted", err)
					}
					var inj *fault.Injected
					if !errors.As(err, &inj) || inj.Site.Name != "band_commit" {
						t.Fatalf("crashed run cause = %v, want injected band_commit fault", err)
					}
					if out.Len() != 0 {
						t.Fatalf("crashed census pass emitted %d output bytes", out.Len())
					}

					resume := base
					resume.Checkpoint = ckpt
					resume.CheckpointEvery = every
					if _, err := os.Stat(ckpt); err != nil {
						// The crash fired before the first record landed:
						// nothing durable exists, so recovery is a fresh
						// checkpointed run.
						if band >= every {
							t.Fatalf("no checkpoint after surviving band %d at cadence %d", band, every)
						}
					} else {
						resume.Resume = true
					}
					rec := obs.NewRecorder()
					resume.Obs = rec
					out.Reset()
					res, err := Label(bytes.NewReader(pgm), &out, resume)
					if err != nil {
						t.Fatalf("resumed run: %v", err)
					}
					if resume.Resume {
						if res.ResumedFrom < 1 || res.ResumedFrom > band {
							t.Fatalf("ResumedFrom = %d, want in [1, %d]", res.ResumedFrom, band)
						}
						if rec.Counter(obs.CtrResumeBand) != int64(res.ResumedFrom) {
							t.Fatalf("resume_band counter = %d, want %d",
								rec.Counter(obs.CtrResumeBand), res.ResumedFrom)
						}
					}
					if got, want := censusKey(res), censusKey(wantRes); got != want {
						t.Fatalf("resumed census\n %s\nwant\n %s", got, want)
					}
					if !bytes.Equal(out.Bytes(), wantPGM) {
						t.Fatalf("resumed label PGM differs from the uninterrupted run")
					}
				})
			}
		}
	}
}

// TestResumePastFinalCheckpoint covers a crash after the census pass
// finished (e.g. during the write pass): the final checkpoint records
// nextBand = total bands, so resuming redoes no census work and still
// writes the identical labeling.
func TestResumePastFinalCheckpoint(t *testing.T) {
	leakcheck.Check(t)
	im := image.Generate(image.DualSpiral, 48)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	opt := Options{Conn: image.Conn4, BandRows: 5, TopK: 3, Checkpoint: ckpt, CheckpointEvery: 4}
	totalBands := (im.N + 4) / 5

	wantRes, wantPGM := streamLabel(t, pgm, Options{Conn: image.Conn4, BandRows: 5, TopK: 3})

	// Census-only run writes the final record; its "crash" is simply never
	// having reached the write pass.
	if _, err := Label(bytes.NewReader(pgm), nil, opt); err != nil {
		t.Fatalf("census run: %v", err)
	}

	rec := obs.NewRecorder()
	opt.Resume = true
	opt.Obs = rec
	var out bytes.Buffer
	res, err := Label(bytes.NewReader(pgm), &out, opt)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.ResumedFrom != totalBands {
		t.Fatalf("ResumedFrom = %d, want %d (past the last band)", res.ResumedFrom, totalBands)
	}
	// Only the write pass decodes bands on this resume.
	if got := rec.Counter(obs.CtrBands); got != int64(totalBands) {
		t.Fatalf("resumed run decoded %d bands, want %d", got, totalBands)
	}
	if got, want := censusKey(res), censusKey(wantRes); got != want {
		t.Fatalf("resumed census\n %s\nwant\n %s", got, want)
	}
	if !bytes.Equal(out.Bytes(), wantPGM) {
		t.Fatalf("resumed label PGM differs from the uninterrupted run")
	}
}

// TestCheckpointCadence pins down how many records a run writes: one per
// full cadence window plus the guaranteed final record.
func TestCheckpointCadence(t *testing.T) {
	im := image.Generate(image.HorizontalBars, 40) // 8 bands of 5 rows
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	for _, tc := range []struct {
		every, want int
	}{
		{1, 8},   // every band
		{3, 3},   // after the 3rd and 6th bands, plus the final record
		{8, 1},   // the 8th band is also the final one
		{100, 1}, // cadence never fires; only the final record
	} {
		rec := obs.NewRecorder()
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		_, err := Label(bytes.NewReader(pgm), nil, Options{
			BandRows: 5, Checkpoint: ckpt, CheckpointEvery: tc.every, Obs: rec})
		if err != nil {
			t.Fatalf("every=%d: %v", tc.every, err)
		}
		if got := rec.Counter(obs.CtrCheckpoints); got != int64(tc.want) {
			t.Fatalf("every=%d wrote %d checkpoints, want %d", tc.every, got, tc.want)
		}
	}
}

// TestCheckpointOptionValidation covers the argument contract: a negative
// cadence and resume-without-a-path are refused before any IO happens.
func TestCheckpointOptionValidation(t *testing.T) {
	im := image.Generate(image.Cross, 16)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	if _, err := Label(bytes.NewReader(pgm), nil, Options{CheckpointEvery: -1}); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("negative cadence error = %v, want ErrBadInput", err)
	}
	if _, err := Label(bytes.NewReader(pgm), nil, Options{Resume: true}); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("resume without path error = %v, want ErrBadInput", err)
	}
	if _, err := Label(bytes.NewReader(pgm), nil, Options{
		Resume: true, Checkpoint: filepath.Join(t.TempDir(), "absent.ckpt")}); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("resume from missing file error = %v, want ErrBadInput", err)
	}
}

// writeCheckpointFor runs a checkpointed census to completion and returns
// the record bytes and the path they live at.
func writeCheckpointFor(t *testing.T, pgm []byte, opt Options) (string, []byte) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	opt.Checkpoint = ckpt
	if _, err := Label(bytes.NewReader(pgm), nil, opt); err != nil {
		t.Fatalf("checkpointed census: %v", err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return ckpt, data
}

// TestCheckpointRecordReproducible: two identical checkpointed runs write
// byte-identical records, because the forest and size sections are
// written in ascending key order rather than in map iteration order.
func TestCheckpointRecordReproducible(t *testing.T) {
	im := image.DARPAScene(128, 12, 7)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	opt := Options{Mode: seq.Grey, BandRows: 8, CheckpointEvery: 3}
	_, first := writeCheckpointFor(t, pgm, opt)
	_, second := writeCheckpointFor(t, pgm, opt)
	if !bytes.Equal(first, second) {
		t.Fatalf("two identical runs wrote different %d- and %d-byte checkpoint records", len(first), len(second))
	}
}

// TestCorruptCheckpointRejected is the corruption table: every structural
// violation — truncation, bit flips in header and payload, a foreign
// version, an empty file — fails with ErrCheckpointCorrupt. A checkpoint
// is never trusted on faith: resuming from a damaged record must be
// impossible, not merely unlikely.
func TestCorruptCheckpointRejected(t *testing.T) {
	im := image.Generate(image.ConcentricCircles, 32)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	opt := Options{BandRows: 5, CheckpointEvery: 2}
	_, valid := writeCheckpointFor(t, pgm, opt)

	corrupt := func(mutate func([]byte) []byte) []byte {
		return mutate(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"only-magic", corrupt(func(b []byte) []byte { return b[:8] })},
		{"truncated-half", corrupt(func(b []byte) []byte { return b[:len(b)/2] })},
		{"truncated-one-byte", corrupt(func(b []byte) []byte { return b[:len(b)-1] })},
		{"magic-flip", corrupt(func(b []byte) []byte { b[0] ^= 0x40; return b })},
		{"version-flip", corrupt(func(b []byte) []byte { b[8] ^= 0xFF; return b })},
		{"version-1", corrupt(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:12], 1); return b })},
		{"payload-flip", corrupt(func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })},
		{"checksum-flip", corrupt(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })},
		{"trailing-garbage", corrupt(func(b []byte) []byte { return append(b, 0xEE) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.ckpt")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := Label(bytes.NewReader(pgm), nil, Options{
				BandRows: 5, Checkpoint: path, Resume: true})
			if !errors.Is(err, errs.ErrCheckpointCorrupt) {
				t.Fatalf("error = %v, want ErrCheckpointCorrupt", err)
			}
			if res != nil {
				t.Fatal("a corrupt checkpoint still produced a result")
			}
		})
	}
}

// TestMismatchedCheckpointRejected is the fingerprint table: a structurally
// pristine record resumed against a different input or different labeling
// options fails with ErrCheckpointMismatch — silently mixing two runs'
// state would produce plausible-looking wrong labels, the worst failure
// mode a recovery path can have.
func TestMismatchedCheckpointRejected(t *testing.T) {
	im := image.Generate(image.ConcentricCircles, 32)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	opt := Options{Conn: image.Conn8, BandRows: 5, CheckpointEvery: 2}
	ckpt, _ := writeCheckpointFor(t, pgm, opt)

	other := image.Generate(image.ConcentricCircles, 40)
	otherPGM := encodePGM(other.Pix, other.N, other.N, 255)
	grey := image.DARPAScene(32, 8, 2)
	greyPGM := encodePGM(grey.Pix, grey.N, grey.N, 255)

	cases := []struct {
		name string
		pgm  []byte
		opt  Options
	}{
		{"different-geometry", otherPGM, Options{Conn: image.Conn8, BandRows: 5}},
		{"different-conn", pgm, Options{Conn: image.Conn4, BandRows: 5}},
		{"different-mode", greyPGM, Options{Conn: image.Conn8, Mode: seq.Grey, BandRows: 5}},
		{"different-band-rows", pgm, Options{Conn: image.Conn8, BandRows: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opt
			o.Checkpoint = ckpt
			o.Resume = true
			if _, err := Label(bytes.NewReader(tc.pgm), nil, o); !errors.Is(err, errs.ErrCheckpointMismatch) {
				t.Fatalf("error = %v, want ErrCheckpointMismatch", err)
			}
		})
	}
}

// TestCheckpointWriteIsAtomic simulates a kill during the checkpoint
// rewrite itself: the in-flight ".partial" sibling never becomes the
// record, so a resume still reads the previous complete record.
func TestCheckpointWriteIsAtomic(t *testing.T) {
	im := image.Generate(image.HorizontalBars, 40)
	pgm := encodePGM(im.Pix, im.N, im.N, 255)
	opt := Options{BandRows: 5, CheckpointEvery: 2}
	ckpt, valid := writeCheckpointFor(t, pgm, opt)

	// A torn in-flight write left a garbage sibling behind.
	if err := os.WriteFile(ckpt+".partial", valid[:len(valid)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	o := opt
	o.Checkpoint = ckpt
	o.Resume = true
	want, wantPGM := streamLabel(t, pgm, Options{BandRows: 5})
	var out bytes.Buffer
	res, err := Label(bytes.NewReader(pgm), &out, o)
	if err != nil {
		t.Fatalf("resume beside a torn partial: %v", err)
	}
	if got := censusKey(res); got != censusKey(want) {
		t.Fatalf("census\n %s\nwant\n %s", got, censusKey(want))
	}
	if !bytes.Equal(out.Bytes(), wantPGM) {
		t.Fatal("label PGM differs after resuming beside a torn partial")
	}
}
