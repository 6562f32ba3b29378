package stream

import (
	"context"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"parimg/internal/errs"
	"parimg/internal/fault"
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/par"
	"parimg/internal/seq"
)

const op = "stream.Label"

// DefaultMaxBandPixels is the band budget when Options.BandRows is zero:
// bands are sized to at most this many resident pixels (4 Mi
// pixels = 16 MiB of decoded uint32s), small enough to stay cache-friendly
// and large enough that the per-band overhead (one ReadAt, one boundary
// merge) is noise.
const DefaultMaxBandPixels = 4 << 20

// DefaultCheckpointEvery is the checkpoint cadence when Options.Checkpoint
// is set but CheckpointEvery is zero: a record is written after every this
// many committed bands (and always after the final band). Sixteen bands
// amortizes the fsync+rename to noise while bounding the redone work after
// a crash to at most sixteen bands of census.
const DefaultCheckpointEvery = 16

// minStripRows is the thinnest strip the band engine splits a band into:
// the engine gets GOMAXPROCS workers, clipped to bandRows/minStripRows. A
// thinner strip spends more on its serial seam and its boundary-row
// lookups than it saves, so 8-row bands stay on one worker.
const minStripRows = 8

// Options configures an out-of-core labeling run. The zero value labels
// 8-connected binary components with the default band budget, no census,
// no observer, and no cancellation.
type Options struct {
	// Conn is the connectivity (0 means Conn8).
	Conn image.Connectivity
	// Mode selects binary or grey-scale components; any other value is
	// rejected with ErrBadInput.
	Mode seq.Mode
	// BandRows fixes the band height in rows. 0 derives it from
	// DefaultMaxBandPixels, with a floor of one row. Bands taller than the
	// image are clamped.
	BandRows int
	// TopK asks for the sizes of the K largest components (0 = none).
	TopK int
	// Context, when non-nil, cancels the run cooperatively, and the run
	// returns the context's typed error: the band engine watches it inside
	// every band, the band seam polls a stop flag it raises, and every
	// band boundary checks it. A ReadAt that blocks is not interrupted;
	// the run stops at the next band boundary after the read returns.
	Context context.Context
	// Obs, when non-nil, receives the pipeline's phase timings
	// (band_decode; band_merge, the seam; census_fold, the fold over the
	// band's runs; band_write, the seam replay and the render from the
	// band's runs; checkpoint_write; resume_replay), the band engine's
	// phases (strip_label, plus border_merge and relabel when a band spans
	// several strips; none of them paints the band) for every band of both
	// passes, and the labeling and merge counters.
	Obs *obs.Recorder
	// Checkpoint, when non-empty, is the path of the durable checkpoint
	// record: after every CheckpointEvery committed census bands (and after
	// the final one) the pipeline crash-atomically rewrites this file with
	// everything needed to continue the run (DESIGN.md §15). A crash at any
	// instant leaves either the previous complete record or the new one.
	Checkpoint string
	// CheckpointEvery is the checkpoint cadence in committed bands (0 means
	// DefaultCheckpointEvery; negative is rejected).
	CheckpointEvery int
	// Resume restarts a run from the record at Checkpoint (which must be
	// set): the census pass seeks to the checkpointed band, replays the
	// seam against the stored boundary rows, and continues. The result —
	// census, metrics schema, and label output — is byte-identical to an
	// uninterrupted run. A structurally broken record fails with
	// ErrCheckpointCorrupt; a record whose input or options fingerprint
	// drifted fails with ErrCheckpointMismatch. Never silently wrong output.
	Resume bool
	// Fault, when non-nil, is consulted at the streaming pipeline's
	// band_commit site (rank 0, round = band index + 1, after the band's
	// census state commits and before any checkpoint write): Delay sleeps
	// there, Crash abandons the run with ErrAborted wrapping
	// *fault.Injected — the hook the crash chaos tests and the kill-window
	// pacing in imgcc use.
	Fault *fault.Injector
}

// Component is one census entry: a component's global minimum seed label
// (row-major pixel index + 1, as a 64-bit value) and its pixel count.
type Component struct {
	Label uint64 `json:"label"`
	Size  int64  `json:"size"`
}

// Result summarizes an out-of-core labeling run.
type Result struct {
	// Width and Height are the image dimensions.
	Width, Height int
	// Components is the number of connected components.
	Components int64
	// Foreground is the number of foreground pixels.
	Foreground int64
	// Bands is the number of band windows in the decomposition
	// (ceil(Height/BandRows)) — a property of the run's geometry, so a
	// resumed run reports the same value as an uninterrupted one even
	// though it decoded fewer bands.
	Bands int
	// BandRows is the band height actually used (the last band may be
	// shorter).
	BandRows int
	// ResumedFrom is the band index the census pass continued at when the
	// run was resumed from a checkpoint, 0 for a fresh run.
	ResumedFrom int
	// Links is the number of cross-band unions performed.
	Links int64
	// Top holds the TopK largest components, largest first (ties broken
	// by smaller label).
	Top []Component `json:"top,omitempty"`
}

// Label labels the connected components of the on-disk binary PGM behind
// r, holding only one band of rows in memory at a time. The image may be
// rectangular, either P5 sample width, and arbitrarily tall — total
// pixels may exceed 2^32, which the resident path's uint32 label space
// cannot represent.
//
// Pass 1 streams bands top to bottom: decode, label band-locally on the
// host-parallel band engine (par.Engine.LabelBand, one strip per worker),
// whose run tables are the band's labeling; merge each band into the
// frontier — the components open at the previous band's bottom row —
// through the shared slab-merge seam, fold the band's runs into its
// components, and close every component that no longer reaches the
// bottom row. No band is painted: the seam and the commit each paint the
// one label row they read, the band's first and its last. State between
// bands stays O(cols + TopK), plus one pair per merge of two open
// components when a write pass or a checkpoint record will read them, and
// the pipeline holds one band of pixels, its run tables and one label
// row. When out is nil the run ends there with the census.
//
// With a non-nil out, a second pass streams the bands again, replays the
// frontier over each band's two boundary rows, and renders each band's
// runs as spans of the label PGM of image.LabelPGMWriter, as the labeling
// service does, mapping each band-time root to its final root through
// pass 1's merges. Beyond 65535 components that PGM cannot exist, and the
// call fails with ErrBadInput without writing a byte; re-run without out
// for the census.
//
// The output is pixel-identical to dense-renumbering the resident
// sequential labeling: band-local seeds lifted by the band's base offset
// are exactly the global row-major seeds, and unite-by-minimum makes
// every root the component's global minimum seed, so the row-major
// first-seen order of roots — hence every dense id — matches.
//
// With Options.Checkpoint set, pass 1 additionally writes a durable
// checkpoint record on its cadence; with Options.Resume, pass 1 restarts
// from that record instead of band 0 and the run's outputs are
// byte-identical to an uninterrupted run (see Options and DESIGN.md §15).
func Label(r io.ReaderAt, out io.Writer, opt Options) (*Result, error) {
	conn := opt.Conn
	if conn == 0 {
		conn = image.Conn8
	}
	if !conn.Valid() {
		return nil, errs.Bad(op, "connectivity %d is not 4 or 8", int(conn))
	}
	if opt.Mode != seq.Binary && opt.Mode != seq.Grey {
		return nil, errs.Bad(op, "invalid mode %d", int(opt.Mode))
	}
	hdr, err := image.ReadPGMHeader(r)
	if err != nil {
		return nil, err
	}
	topK := max(0, opt.TopK)
	bandRows, err := resolveBandRows(&hdr, opt)
	if err != nil {
		return nil, err
	}
	// Probe the final pixel byte before allocating band buffers: a crafted
	// header declaring giant dimensions over a short file must fail with a
	// typed error here, not force a band-sized allocation first.
	var probe [1]byte
	last := hdr.DataOffset + hdr.Pixels()*int64(hdr.SampleBytes()) - 1
	if _, err := r.ReadAt(probe[:], last); err != nil {
		return nil, errs.Bad(op, "PGM pixel data truncated: %dx%d at %d byte(s)/sample needs %d data bytes: %v",
			hdr.Width, hdr.Height, hdr.SampleBytes(), hdr.Pixels()*int64(hdr.SampleBytes()), err)
	}

	ckptEvery := opt.CheckpointEvery
	if ckptEvery < 0 {
		return nil, errs.Bad(op, "checkpoint cadence %d is negative", ckptEvery)
	}
	if ckptEvery == 0 {
		ckptEvery = DefaultCheckpointEvery
	}
	if opt.Resume && opt.Checkpoint == "" {
		return nil, errs.Bad(op, "resume requested without a checkpoint path")
	}

	p := &pipeline{
		hdr:       hdr,
		r:         r,
		conn:      conn,
		mode:      opt.Mode,
		bandRows:  bandRows,
		rec:       opt.Obs,
		ctx:       opt.Context,
		started:   time.Now(),
		fr:        newFrontier(hdr.Width, topK, out != nil || opt.Checkpoint != ""),
		ckptPath:  opt.Checkpoint,
		ckptEvery: ckptEvery,
		fault:     opt.Fault,
	}
	if err := p.interrupted(); err != nil {
		return nil, err
	}
	if p.ctx != nil {
		defer context.AfterFunc(p.ctx, func() { p.stop.Store(true) })()
	}
	p.eng = par.NewEngine(max(1, min(runtime.GOMAXPROCS(0), bandRows/minStripRows)))
	p.eng.SetObserver(opt.Obs)
	defer p.eng.Close()

	if p.ckptPath != "" {
		// The raw header bytes are the checkpoint's input fingerprint,
		// captured once whether this run writes records or validates one.
		if p.hdrBytes, err = readHeaderBytes(r, hdr); err != nil {
			return nil, err
		}
	}
	if opt.Resume {
		t := p.rec.StartPhase()
		c, err := loadCheckpoint(p.ckptPath)
		if err == nil {
			err = c.matches(hdr, p.hdrBytes, conn, p.mode, bandRows, topK)
		}
		if err != nil {
			p.rec.EndPhase("resume_replay", "", t)
			return nil, err
		}
		p.startBand = p.restore(c)
		p.rec.EndPhase("resume_replay", "", t)
		p.rec.Add(obs.CtrResumeBand, int64(p.startBand))
	}

	res, err := p.census()
	if err != nil {
		return nil, err
	}
	res.ResumedFrom = p.startBand
	if out != nil {
		if err := p.writeLabels(out, res.Components); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resolveBandRows turns Options.BandRows into a concrete band height in
// [1, Height], rejecting bands whose pixel count would not fit the
// band-local uint32 label space.
func resolveBandRows(hdr *image.PGMHeader, opt Options) (int, error) {
	rows := opt.BandRows
	if rows <= 0 {
		// One row must be resident no matter how wide the image is.
		rows = max(1, DefaultMaxBandPixels/hdr.Width)
	}
	if rows > hdr.Height {
		rows = hdr.Height
	}
	// Band-local seeds are band-row-major index + 1 in uint32; keep the
	// band area clear of the ceiling (the resident MaxSide bound squared).
	if int64(rows)*int64(hdr.Width) >= int64(errs.MaxSide)*int64(errs.MaxSide) {
		return 0, errs.Bad(op,
			"band of %d x %d pixels exceeds the band-local uint32 label space; lower -band-rows",
			rows, hdr.Width)
	}
	return rows, nil
}

// pipeline carries the per-run state shared by the census and label
// passes: the band engine and the reusable band buffers, and pass 1's
// frontier.
type pipeline struct {
	hdr      image.PGMHeader
	r        io.ReaderAt
	conn     image.Connectivity
	mode     seq.Mode
	bandRows int
	rec      *obs.Recorder
	ctx      context.Context // nil: not cancelable
	started  time.Time
	stop     atomic.Bool // raised when ctx is done; polled by the band seam

	eng     *par.Engine // labels every band of both passes; its run tables are the band's labeling
	pix     []uint32    // current band pixels
	scratch []byte      // raw sample bytes for ReadRows

	fr *frontier // pass 1's merge state and tallies

	ckptPath  string // checkpoint record path ("" = no checkpointing)
	ckptEvery int    // checkpoint cadence in committed bands
	hdrBytes  []byte // raw input bytes [0, DataOffset): the fingerprint
	startBand int    // census pass starts here (0 fresh, >0 resumed)
	fault     *fault.Injector
}

// forEachBand streams the image top to bottom starting at band index
// from, decoding each window and labeling it on the band engine into run
// tables, painting nothing, then handing it to fn with its absolute start
// row and the band's component count. It owns the band_decode phase (the
// engine records its own) and checks the context at every band boundary;
// fn runs whatever per-band work the pass needs. A resumed census pass
// starts past the checkpointed bands; the write pass always starts at 0.
func (p *pipeline) forEachBand(from int, fn func(r0, rows, comps int) error) error {
	W := p.hdr.Width
	if want := p.bandRows * W; cap(p.pix) < want {
		p.pix = make([]uint32, want)
	}
	for r0 := from * p.bandRows; r0 < p.hdr.Height; r0 += p.bandRows {
		if err := p.interrupted(); err != nil {
			return err
		}
		rows := p.bandRows
		if r0+rows > p.hdr.Height {
			rows = p.hdr.Height - r0
		}
		pix := p.pix[:rows*W]

		t := p.rec.StartPhase()
		var err error
		p.scratch, err = p.hdr.ReadRows(p.r, r0, rows, pix, p.scratch)
		p.rec.EndPhase("band_decode", "", t)
		if err != nil {
			return err
		}

		comps, err := p.eng.LabelBand(p.ctx, pix, rows, W, p.conn, p.mode, nil)
		if err != nil {
			if cerr := p.interrupted(); cerr != nil {
				return cerr // report the run's own elapsed time, not the band's
			}
			return err
		}

		p.rec.Add(obs.CtrBands, 1)
		if err := fn(r0, rows, comps); err != nil {
			return err
		}
	}
	return nil
}

// interrupted returns the run's typed context error once the context is
// done, nil while the run is live or not cancelable.
func (p *pipeline) interrupted() error {
	if p.ctx == nil {
		return nil
	}
	if err := p.ctx.Err(); err != nil {
		return errs.FromContext(op, time.Since(p.started), err)
	}
	return nil
}

// census is pass 1: stream every band from the start band (0 fresh,
// checkpointed band when resuming) through the frontier, producing the
// component count, foreground count and top-K census. Each band's seam
// (band_merge) unites the frontier's open components with the band's
// components; its fold (census_fold) adds each of the band's runs to its
// component, records merges of two open components, rebuilds the slot
// row from the band's bottom row and closes every component that no
// longer reaches it. Counters: boundary pairs/edges/links per band merge
// and checkpoint records written; the band engine counts runs, strip
// components and its own intra-band seams.
//
// On resume the normal merge path IS the seam replay: the restored
// frontier is exactly what the uninterrupted run would hold entering this
// band, band labeling is deterministic, and unite-by-minimum is
// idempotent, so the frontier evolves identically from here on.
func (p *pipeline) census() (*Result, error) {
	W := p.hdr.Width
	f := p.fr
	err := p.forEachBand(p.startBand, func(r0, rows, comps int) error {
		f.stripComps += int64(comps)
		pix, strips := p.pix[:rows*W], p.eng.Strips()

		t := p.rec.StartPhase()
		if err := f.begin(uint64(r0)*uint64(W), pix, comps); err != nil {
			return err
		}
		pairs, links := f.seam(pix, strips, p.conn, p.mode, &p.stop)
		p.rec.EndPhase("band_merge", "", t)
		if err := p.interrupted(); err != nil {
			return err // a stopped seam is partial: commit nothing
		}
		p.rec.Add(obs.CtrBorderPairs, pairs)
		p.rec.Add(obs.CtrBorderEdges, int64(len(f.edges)/2))
		p.rec.Add(obs.CtrBorderLinks, int64(links))
		f.links += int64(links)

		t = p.rec.StartPhase()
		seeds := f.fold(strips)
		f.commit(strips, true)
		p.rec.EndPhase("census_fold", "", t)
		if seeds != comps {
			return errs.Bad(op, "component accounting mismatch: band at row %d holds %d seeds, the band engine counted %d",
				r0, seeds, comps)
		}

		// The band's census state is now fully committed: fault site, then
		// the checkpoint cadence.
		return p.bandCommitted(r0/p.bandRows, r0+rows == p.hdr.Height)
	})
	if err != nil {
		return nil, err
	}

	f.finish()
	if f.closed != f.stripComps-f.links {
		// Cross-check: every component closes exactly once.
		return nil, errs.Bad(op, "component accounting mismatch: %d closed, %d by links",
			f.closed, f.stripComps-f.links)
	}
	return &Result{
		Width:      p.hdr.Width,
		Height:     p.hdr.Height,
		Components: f.closed,
		Foreground: f.fg,
		Bands:      (p.hdr.Height + p.bandRows - 1) / p.bandRows,
		BandRows:   p.bandRows,
		Links:      f.links,
		Top:        f.sortedTop(),
	}, nil
}

// writeLabels is pass 2: stream the bands again (the band decomposition
// and band-local labelings are deterministic, so the labels reappear
// exactly), replay the frontier over each band's boundary rows, and render
// each band's runs through image.LabelPGMWriter. A label's band-time root
// is its set's root in the band forest when its seed lies in the top row,
// and its own lifted seed otherwise; pass 1's merges, united into a
// UnionFind64 before the first band, map it to the final root. All of it
// is timed under band_write.
func (p *pipeline) writeLabels(out io.Writer, components int64) error {
	W := p.hdr.Width
	lw, err := image.NewLabelPGMWriter(out, W, p.hdr.Height, components)
	if err != nil {
		return err
	}
	final := NewUnionFind64()
	for k := 0; k+1 < len(p.fr.merges); k += 2 {
		final.Unite(p.fr.merges[k], p.fr.merges[k+1])
	}
	f := newFrontier(W, 0, false)
	root := func(l uint32) uint64 { return final.Find(f.root(l)) }
	err = p.forEachBand(0, func(r0, rows, comps int) error {
		t := p.rec.StartPhase()
		defer p.rec.EndPhase("band_write", "", t)
		pix, strips := p.pix[:rows*W], p.eng.Strips()
		if err := f.begin(uint64(r0)*uint64(W), pix, comps); err != nil {
			return err
		}
		f.seam(pix, strips, p.conn, p.mode, &p.stop)
		if err := p.interrupted(); err != nil {
			return err
		}
		f.commit(strips, false)
		return writeBand(lw, strips, W, root)
	})
	if err != nil {
		return err
	}
	return lw.Close()
}

// writeBand renders a band's run tables through lw, row by row: each gap
// as a background span and each run as a span of the component that root
// maps the run's band label to, looked up once per change of label.
func writeBand(lw *image.LabelPGMWriter, strips []seq.BandLabeler, cols int,
	root func(uint32) uint64) error {
	var last uint32 // the band label of the last run rendered
	var r uint64    // and its root
	for w := range strips {
		b := &strips[w]
		for i := 0; i < b.Rows(); i++ {
			runs, labels, _ := b.Row(i)
			col := int32(0)
			for k, l := range labels {
				s, e := runs[2*k], runs[2*k+1]
				if l != last {
					last, r = l, root(l)
				}
				if err := lw.WriteSpan(int(s-col), 0); err != nil {
					return err
				}
				if err := lw.WriteSpan(int(e-s), r); err != nil {
					return err
				}
				col = e
			}
			if err := lw.WriteSpan(cols-int(col), 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// bandCommitted runs after band (0-based index) has fully committed its
// census state — merge done, runs folded in, closed components counted,
// slot row rebuilt. It first polls the band_commit fault site (rank 0, round =
// band+1): Delay sleeps in place, Crash abandons the run exactly as a
// process death here would, and Panic raises the injected payload. Then,
// when checkpointing is on, it rewrites the checkpoint record on the
// cadence — and always after the last band, so a crash during the write
// pass resumes without redoing any census work.
func (p *pipeline) bandCommitted(band int, last bool) error {
	site := fault.Site{Name: "band_commit", Rank: 0, Round: band + 1}
	switch act := p.fault.Decide(site); act.Class {
	case fault.None:
	case fault.Delay:
		time.Sleep(act.Delay)
	case fault.Panic:
		panic(&fault.Injected{Site: site})
	default: // Crash (and NoShow, degraded): abandon the run right here.
		return errs.Aborted(op, &fault.Injected{Site: site},
			"injected crash after band %d committed", band)
	}
	if p.ckptPath == "" || ((band+1)%p.ckptEvery != 0 && !last) {
		return nil
	}
	t := p.rec.StartPhase()
	err := p.saveCheckpoint(band + 1)
	p.rec.EndPhase("checkpoint_write", "", t)
	if err != nil {
		return err
	}
	p.rec.Add(obs.CtrCheckpoints, 1)
	return nil
}
