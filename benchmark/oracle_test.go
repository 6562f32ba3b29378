package main

import (
	"io"
	"os"
	"testing"

	"parimg/internal/image"
	"parimg/internal/stream"
)

// smallStream generates a stream workload's input at test size and returns
// its manifest entry, the oracle and the opened file.
func smallStream(t *testing.T, workload string) (*input, map[string]uint32, *os.File) {
	t.Helper()
	m := &manifest{Workload: workload, Seed: 7, Sizes: sizes{LabelTile: 64, NoiseTile: 32, NoiseBandRows: 8}}
	oracle, err := prepare(m, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(m.Inputs[0].File)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &m.Inputs[0], oracle, f
}

// labelFP runs stream.Label over r with the input's settings and the given
// band height, routing the label PGM through wrap, and fingerprints the
// result the way the benchmark does.
func labelFP(t *testing.T, r io.ReaderAt, in *input, bandRows int, wrap func(io.Writer) io.Writer) (*stream.Result, uint32) {
	t.Helper()
	var out io.Writer
	h := newPGMHash()
	if in.Label {
		out = wrap(h)
	}
	res, err := stream.Label(r, out, stream.Options{Conn: in.conn(), Mode: in.mode(), BandRows: bandRows, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	var pgm uint32
	if in.Label {
		pgm = h.Sum32()
	}
	return res, fpStream(res.Components, res.Foreground, res.Top, pgm)
}

func same(w io.Writer) io.Writer { return w }

// TestOracleMatchesStream checks the tiled oracle against stream.Label on
// small instances of both stream workloads — stacked grey tiles with label
// output, side-by-side binary tiles census-only — at band heights that put
// seams inside tiles and on tile edges, and on the set-up head view.
func TestOracleMatchesStream(t *testing.T) {
	for _, wl := range []string{"stream-label", "stream-noise"} {
		t.Run(wl, func(t *testing.T) {
			in, oracle, f := smallStream(t, wl)
			for _, bandRows := range []int{1, 3, 8, 0} {
				if _, fp := labelFP(t, f, in, bandRows, same); fp != oracle[in.Key] {
					t.Errorf("band rows %d: fingerprint %08x, oracle %08x", bandRows, fp, oracle[in.Key])
				}
			}
			hdr, err := image.ReadPGMHeader(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, fp := labelFP(t, newHeadView(f, hdr, in.Head), in, in.BandRows, same); fp != oracle[headKey(in.Key)] {
				t.Errorf("head: fingerprint %08x, oracle %08x", fp, oracle[headKey(in.Key)])
			}
		})
	}
}

// TestHeadView checks that the set-up head view is a complete PGM of the
// file's first rows.
func TestHeadView(t *testing.T) {
	_, _, f := smallStream(t, "stream-noise")
	hdr, err := image.ReadPGMHeader(f)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 5
	got, err := io.ReadAll(io.NewSectionReader(newHeadView(f, hdr, rows), 0, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("P5\n256 5\n255\n")
	samples := make([]byte, rows*hdr.Width)
	if _, err := f.ReadAt(samples, hdr.DataOffset); err != nil {
		t.Fatal(err)
	}
	want = append(want, samples...)
	if string(got) != string(want) {
		t.Fatalf("head view: %d bytes, want %d (header %q)", len(got), len(want), got[:min(len(got), 16)])
	}
}

// flipAt is an io.Writer that flips the byte at one offset of the stream
// it passes through.
type flipAt struct {
	w   io.Writer
	at  int64
	off int64
}

func (f *flipAt) Write(p []byte) (int, error) {
	q := append([]byte(nil), p...)
	if i := f.at - f.off; i >= 0 && i < int64(len(q)) {
		q[i] ^= 1
	}
	f.off += int64(len(p))
	return f.w.Write(q)
}

// TestVerifyCountsWrongOutputs checks that one flipped byte of the label
// PGM, or one wrong component count, turns into a failed operation.
func TestVerifyCountsWrongOutputs(t *testing.T) {
	in, oracle, f := smallStream(t, "stream-label")
	res, good := labelFP(t, f, in, 0, same)
	_, flipped := labelFP(t, f, in, 0, func(w io.Writer) io.Writer { return &flipAt{w: w, at: 200} })
	miscounted := fpStream(res.Components+1, res.Foreground, res.Top, 0)

	rep := newReport()
	rep.ok(in.Key, good)
	rep.ok(in.Key, good)
	rep.ok(headKey(in.Key), oracle[headKey(in.Key)])
	if n, problems := verify(rep, oracle); n != 0 || len(problems) != 0 {
		t.Fatalf("correct outputs: %d mismatched, problems %q", n, problems)
	}
	for name, fp := range map[string]uint32{"flipped byte": flipped, "wrong count": miscounted} {
		rep := newReport()
		rep.ok(in.Key, good)
		rep.ok(in.Key, fp)
		rep.ok(headKey(in.Key), oracle[headKey(in.Key)])
		if n, _ := verify(rep, oracle); n != 1 {
			t.Errorf("%s: %d mismatched operations, want 1", name, n)
		}
	}

	rep = newReport()
	rep.ok(in.Key, good)
	if _, problems := verify(rep, oracle); len(problems) != 1 {
		t.Errorf("unchecked head: problems %q, want one", problems)
	}
}
