package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/stream"
)

// headView presents the first rows of the PGM behind f as a complete PGM
// of that height: a rewritten header, then the original samples.
type headView struct {
	header []byte
	f      io.ReaderAt
	data   int64 // offset of the samples in f
	size   int64 // size of the view
}

func newHeadView(f io.ReaderAt, hdr image.PGMHeader, rows int) *headView {
	h := []byte(fmt.Sprintf("P5\n%d %d\n%d\n", hdr.Width, rows, hdr.MaxVal))
	return &headView{header: h, f: f, data: hdr.DataOffset,
		size: int64(len(h)) + int64(rows)*int64(hdr.Width)*int64(hdr.SampleBytes())}
}

func (v *headView) ReadAt(p []byte, off int64) (int, error) {
	if off >= v.size {
		return 0, io.EOF
	}
	n := 0
	if off < int64(len(v.header)) {
		n = copy(p, v.header[off:])
		p, off = p[n:], off+int64(n)
	}
	if len(p) == 0 {
		return n, nil
	}
	short := int64(len(p)) > v.size-off
	if short {
		p = p[:v.size-off]
	}
	m, err := v.f.ReadAt(p, v.data+off-int64(len(v.header)))
	if err == nil && short {
		err = io.EOF
	}
	return n + m, err
}

// stream drives stream.Label over the on-disk PGM (served from the page
// cache) in a closed loop, the label PGM going to a hashing writer.
func (c *child) stream() error {
	in := &c.m.Inputs[0]
	f, err := os.Open(in.File)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, err := image.ReadPGMHeader(f)
	if err != nil {
		return err
	}
	opts := stream.Options{Conn: in.conn(), Mode: in.mode(), BandRows: in.BandRows, TopK: topK}

	label := func(r io.ReaderAt, key string, rec *obs.Recorder) time.Duration {
		var out io.Writer
		var h *pgmHash
		if in.Label {
			h = newPGMHash()
			out = h
		}
		o := opts
		o.Obs = rec
		start := time.Now()
		res, err := stream.Label(r, out, o)
		d := time.Since(start)
		if err != nil {
			c.rep.fail(key, err)
			return d
		}
		var pgm uint32
		if h != nil {
			pgm = h.Sum32()
		}
		c.rep.ok(key, fpStream(res.Components, res.Foreground, res.Top, pgm))
		if rec != nil {
			c.traceOp("stream.label", start, d, rec)
		}
		return d
	}
	// newLeg labels the file under GOMAXPROCS procs, recording into rec
	// when traced.
	newLeg := func(procs int, rec *obs.Recorder) *leg {
		return c.newLeg(procs, 1, func(int) opRec {
			// Each Label allocates its band buffers afresh. Collecting the
			// previous call's garbage first (untimed) makes the peak RSS
			// one call's working set instead of depending on where the
			// collector's pacing happened to leave that garbage.
			runtime.GC()
			return opRec{in.Key, in.Pixels, label(f, in.Key, rec).Seconds()}
		})
	}
	// Set-up: open the file and label its head, one default band budget of
	// rows — with the default budget, the time to the first finished band.
	setup := func() time.Duration {
		start := time.Now()
		fh, err := os.Open(in.File)
		if err != nil {
			c.rep.fail(headKey(in.Key), err)
			return time.Since(start)
		}
		label(newHeadView(fh, hdr, in.Head), headKey(in.Key), nil)
		d := time.Since(start)
		fh.Close()
		return d
	}

	w := c.m.Workers
	if !c.m.Trace {
		main, one := newLeg(w, nil), newLeg(1, nil)
		c.e2e(c.rounds(setup, main.window, one.window), main, one)
		return nil
	}
	u, t, one := newLeg(w, nil), newLeg(w, obs.NewRecorder()), newLeg(1, nil)
	c.rounds(setup, u.window, t.window, one.window)
	bandRows := in.BandRows
	if bandRows == 0 {
		bandRows = max(1, stream.DefaultMaxBandPixels/hdr.Width)
	}
	var st replayStats
	if err := c.replayFile(in.File, bandRows, in, &st); err != nil {
		return err
	}
	c.layers("stream.label", u, t, one, &st)
	return nil
}
