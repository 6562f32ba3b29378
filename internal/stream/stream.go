package stream

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
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

// DefaultMaxBandPixels is the band budget: the pixels the bands in flight
// may hold together (4 Mi pixels = 16 MiB of decoded uint32s). With
// Options.BandRows zero, one band fills it, which keeps a band
// cache-friendly and large enough that the per-band overhead (one ReadAt,
// one boundary merge) is noise. Thinner bands share it: as many label at
// once as fit, up to one per core, so the pixels in flight never exceed
// max(budget, one band).
const DefaultMaxBandPixels = 4 << 20

// DefaultCheckpointEvery is the checkpoint cadence when Options.Checkpoint
// is set but CheckpointEvery is zero: a record is written after every this
// many committed bands (and always after the final band). Sixteen bands
// amortizes the fsync+rename to noise while bounding the redone work after
// a crash to at most sixteen bands of census.
const DefaultCheckpointEvery = 16

// minStripRows is the thinnest strip a band engine splits a band into:
// each band in flight gets the cores the other bands leave it, clipped to
// bandRows/minStripRows workers. A thinner strip spends more on its
// serial seam and its boundary-row lookups than it saves, so 8-row bands
// stay on one worker each, and use the cores as bands in flight instead.
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
	// returns the context's typed error: the band engines watch it inside
	// every band, the band seam polls a stop flag it raises, and every
	// band boundary checks it. A ReadAt that blocks is not interrupted;
	// the run stops at the next band boundary after the read returns.
	Context context.Context
	// Obs, when non-nil, receives the pipeline's phase timings
	// (band_decode; band_merge, the seam and the paint of the band's two
	// edge label rows it reads; band_wait, the commit's wait for the next
	// labeled band; census_fold, the fold over the band's runs;
	// band_write, the seam replay and the render from the band's runs;
	// checkpoint_write; resume_replay), the band engines' phases
	// (strip_label, plus border_merge and relabel when a band spans
	// several strips; none of them paints the band) for every band of
	// both passes, and the labeling and merge counters. The band workers'
	// phases (band_decode, the paint, the engines') overlap the commit's,
	// so with several bands in flight the phases sum to more than the
	// wall time; the wall time less band_wait is the commit's busy time.
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
	// Fault, when non-nil, is consulted at two sites of the streaming
	// pipeline, in both passes. At band_label (rank = the band's slot,
	// round = band index + 1), a band worker polls it after labeling the
	// band: Delay sleeps there, so later bands can finish first, and Crash
	// and Panic abandon the run with ErrAborted wrapping *fault.Injected
	// once the commit reaches that band. At band_commit (rank 0, round =
	// band index + 1), the commit polls it after the band's census state
	// commits and before any checkpoint write: Delay sleeps there, Crash
	// abandons the run with ErrAborted wrapping *fault.Injected, and Panic
	// unwinds to the caller. These are the hooks the crash chaos tests and
	// the kill-window pacing in imgcc use.
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
// r, holding only the bands in flight in memory: no more pixels than
// DefaultMaxBandPixels, or one band when a band is larger. The image may
// be rectangular, either P5 sample width, and arbitrarily tall — total
// pixels may exceed 2^32, which the resident path's uint32 label space
// cannot represent.
//
// Pass 1 streams bands top to bottom. Up to D bands are in flight, D =
// min(GOMAXPROCS, bands left, max(1, DefaultMaxBandPixels / band
// pixels)): each of D band workers decodes its band, labels it
// band-locally on its own host-parallel band engine
// (par.Engine.LabelBand, one strip per engine worker), whose run tables
// are the band's labeling, and paints the band's first and last label
// rows. The caller's goroutine commits the bands strictly in band order:
// it merges each band into the frontier — the components open at the
// previous band's bottom row — through the shared slab-merge seam, folds
// the band's runs into its components, and closes every component that
// no longer reaches the bottom row. Only the commit touches the frontier,
// the checkpoint and the output, so nothing but the speed depends on D.
// State between bands stays O(cols + TopK), plus one pair per merge of
// two open components when a write pass or a checkpoint record will read
// them. When out is nil the run ends there with the census.
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
//
// Label returns only after every band worker has exited, on every path,
// and reads r only while it runs; a ReadAt that blocks delays the return.
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
	defer p.closeSlots()

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
// passes: the band slots and pass 1's frontier.
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

	slots []*slot   // the bands in flight; the next pass reuses them when its depth matches
	fr    *frontier // pass 1's merge state and tallies

	ckptPath  string // checkpoint record path ("" = no checkpointing)
	ckptEvery int    // checkpoint cadence in committed bands
	hdrBytes  []byte // raw input bytes [0, DataOffset): the fingerprint
	startBand int    // census pass starts here (0 fresh, >0 resumed)
	fault     *fault.Injector
}

// slot is one band in flight: a band worker's engine and buffers, and the
// band the worker last labeled into them. The worker hands the band to
// the commit and touches the slot again only once the commit releases it:
// until then the frontier keeps its node index in pix, and the commit
// reads the run tables and the two label rows.
type slot struct {
	eng         *par.Engine // labels the slot's bands; its run tables are the band's labeling
	pix         []uint32    // the band's pixels, then the frontier's node index
	scratch     []byte      // raw sample bytes for ReadRows
	first, last []uint32    // the band's first label row (after band 0) and its last

	r0, rows, comps int // the band held: its first row, height and component count

	// The hand-offs alternate, so each channel holds at most one message
	// and neither send blocks.
	ready chan error    // worker to commit: the band is labeled, or why not
	free  chan struct{} // commit to worker: the band is committed, take the next
}

// depth returns how many bands of a pass of n bands are in flight, and
// the workers of each band's engine: one band per core at most, as many
// as fit the band budget together, and the cores left over split each
// band into strips no thinner than minStripRows.
func (p *pipeline) depth(n int) (d, workers int) {
	procs := runtime.GOMAXPROCS(0)
	d = min(procs, n, max(1, DefaultMaxBandPixels/(p.bandRows*p.hdr.Width)))
	return d, max(1, min(procs/d, p.bandRows/minStripRows))
}

// reslot makes d band slots whose engines have workers workers each,
// keeping the previous pass's slots when they match.
func (p *pipeline) reslot(d, workers int) {
	if len(p.slots) == d && p.slots[0].eng.Workers() == workers {
		return
	}
	p.closeSlots()
	W := p.hdr.Width
	for range d {
		s := &slot{eng: par.NewEngine(workers), pix: make([]uint32, p.bandRows*W),
			first: make([]uint32, W), last: make([]uint32, W)}
		s.eng.SetObserver(p.rec)
		p.slots = append(p.slots, s)
	}
}

// closeSlots closes the slots' engines and drops the slots.
func (p *pipeline) closeSlots() {
	for _, s := range p.slots {
		s.eng.Close()
	}
	p.slots = nil
}

// forEachBand streams the image top to bottom from band index from and
// hands each band, labeled, to fn in band order on the caller's goroutine.
// Slot i's band worker takes bands from+i, from+i+d, ... in turn, and
// takes each only once fn has returned for the slot's last one. The
// caller's goroutine checks the context at every band boundary, waits for
// the band's worker (band_wait), counts the band and runs fn, which does
// whatever per-band work the pass needs. A resumed census pass starts past
// the checkpointed bands; the write pass always starts at 0. The first
// error in band order ends the pass, and forEachBand returns only after
// every band worker has exited, on every path, a panic in fn included.
func (p *pipeline) forEachBand(from int, fn func(s *slot) error) error {
	n := (p.hdr.Height + p.bandRows - 1) / p.bandRows
	if from >= n {
		return nil
	}
	d, workers := p.depth(n - from)
	p.reslot(d, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, s := range p.slots {
		s.ready, s.free = make(chan error, 1), make(chan struct{}, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(s, i, from+i, d, n, done)
		}()
	}
	defer func() {
		close(done)
		wg.Wait()
	}()
	for k := from; k < n; k++ {
		if err := p.interrupted(); err != nil {
			return err
		}
		s := p.slots[(k-from)%d]
		t := p.rec.StartPhase()
		err := <-s.ready
		p.rec.EndPhase("band_wait", "", t)
		if err != nil {
			return err
		}
		p.rec.Add(obs.CtrBands, 1)
		if err := fn(s); err != nil {
			return err
		}
		s.free <- struct{}{}
	}
	return nil
}

// work is the band worker of slot s (rank i): it labels bands k, k+d, ...
// below n into the slot, reports each on s.ready and waits on s.free
// before it takes the next. It quits after an error, and once done closes.
func (p *pipeline) work(s *slot, i, k, d, n int, done <-chan struct{}) {
	for ; k < n; k += d {
		err := p.labelBand(s, i, k)
		s.ready <- err
		if err != nil || k+d >= n {
			return
		}
		select {
		case <-s.free:
		case <-done:
			return
		}
	}
}

// labelBand decodes band k into slot s (rank i), labels it on the slot's
// engine into run tables, painting nothing, and paints the band's last
// label row and, after band 0, its first, which the commit's seam and
// slot-row rebuild read; the paint is timed under band_merge, the
// engine's phases by the engine. It then polls the band_label fault site
// (rank i, round k+1). A band worker has no caller to unwind to, so any
// panic, an injected one included, comes back as ErrAborted.
func (p *pipeline) labelBand(s *slot, i, k int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("panic: %v", r)
			}
			err = errs.Aborted(op, cause, "band worker %d panicked on band %d: %v", i, k, r)
		}
	}()
	if err := p.interrupted(); err != nil {
		return err
	}
	W := p.hdr.Width
	s.r0 = k * p.bandRows
	s.rows = min(p.bandRows, p.hdr.Height-s.r0)
	pix := s.pix[:s.rows*W]

	t := p.rec.StartPhase()
	s.scratch, err = p.hdr.ReadRows(p.r, s.r0, s.rows, pix, s.scratch)
	p.rec.EndPhase("band_decode", "", t)
	if err != nil {
		return err
	}
	if s.comps, err = s.eng.LabelBand(p.ctx, pix, s.rows, W, p.conn, p.mode, nil); err != nil {
		if cerr := p.interrupted(); cerr != nil {
			return cerr // report the run's own elapsed time, not the band's
		}
		return err
	}

	t = p.rec.StartPhase()
	strips := s.eng.Strips()
	if k > 0 {
		strips[0].PaintRow(s.first, 0)
	}
	bottom := &strips[len(strips)-1]
	bottom.PaintRow(s.last, bottom.Rows()-1)
	p.rec.EndPhase("band_merge", "", t)

	return p.injectFault(fault.Site{Name: "band_label", Rank: i, Round: k + 1}, "labeled")
}

// injectFault polls a fault site of band site.Round-1: Delay sleeps in
// place, Crash abandons the run exactly as a process death there would,
// with ErrAborted wrapping *fault.Injected, and Panic raises the injected
// payload. after says what the band has done at the site.
func (p *pipeline) injectFault(site fault.Site, after string) error {
	switch act := p.fault.Decide(site); act.Class {
	case fault.None:
	case fault.Delay:
		time.Sleep(act.Delay)
	case fault.Panic:
		panic(&fault.Injected{Site: site})
	default: // Crash (and NoShow, degraded): abandon the run right here.
		return errs.Aborted(op, &fault.Injected{Site: site},
			"injected crash after band %d %s", site.Round-1, after)
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
	err := p.forEachBand(p.startBand, func(s *slot) error {
		f.stripComps += int64(s.comps)
		pix, strips := s.pix[:s.rows*W], s.eng.Strips()

		t := p.rec.StartPhase()
		if err := f.begin(uint64(s.r0)*uint64(W), pix, s.comps); err != nil {
			return err
		}
		pairs, links := f.seam(pix, s.first, p.conn, p.mode, &p.stop)
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
		f.commit(s.last, true)
		p.rec.EndPhase("census_fold", "", t)
		if seeds != s.comps {
			return errs.Bad(op, "component accounting mismatch: band at row %d holds %d seeds, the band engine counted %d",
				s.r0, seeds, s.comps)
		}

		// The band's census state is now fully committed: fault site, then
		// the checkpoint cadence.
		return p.bandCommitted(s.r0/p.bandRows, s.r0+s.rows == p.hdr.Height)
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
	err = p.forEachBand(0, func(s *slot) error {
		t := p.rec.StartPhase()
		defer p.rec.EndPhase("band_write", "", t)
		pix := s.pix[:s.rows*W]
		if err := f.begin(uint64(s.r0)*uint64(W), pix, s.comps); err != nil {
			return err
		}
		f.seam(pix, s.first, p.conn, p.mode, &p.stop)
		if err := p.interrupted(); err != nil {
			return err
		}
		f.commit(s.last, false)
		return writeBand(lw, s.eng.Strips(), W, root)
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
// slot row rebuilt. It first polls the band_commit fault site (rank 0,
// round = band+1), where an injected panic unwinds to Label's caller.
// Then, when checkpointing is on, it rewrites the checkpoint record on the
// cadence — and always after the last band, so a crash during the write
// pass resumes without redoing any census work.
func (p *pipeline) bandCommitted(band int, last bool) error {
	if err := p.injectFault(fault.Site{Name: "band_commit", Rank: 0, Round: band + 1}, "committed"); err != nil {
		return err
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
