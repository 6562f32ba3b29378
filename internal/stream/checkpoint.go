package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"parimg/internal/atomicio"
	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// The durable checkpoint record of the streaming census pass (DESIGN.md
// §15). One record captures everything pass 1 needs to continue from the
// next band as if it had never stopped:
//
//   - a fingerprint of the run: the input's raw header bytes, its
//     geometry (width, height, maxval, data offset), and the options that
//     shape the band decomposition, the labeling and the census
//     (connectivity, mode, band rows, TopK) — resume refuses a checkpoint
//     whose fingerprint drifted, because band-local labels would no longer
//     line up, and a K-entry top list cannot answer a larger K;
//   - the resume point: the index of the next uncommitted band;
//   - the frontier at that point: the strip-component, link, closed and
//     foreground tallies, the previous band's bottom pixel row and slot
//     row, the open components' roots and sizes, the top list, and the
//     merges of two open components so far.
//
// The on-disk form is little-endian binary: an 8-byte magic, a version
// word, the fields above, and a trailing CRC-32C over every preceding
// byte. Every section is in a deterministic order (slots in first-seen
// column order, the top list in Result.Top's order, merges in recording
// order), so identical runs write byte-identical records. Records are
// written crash-atomically (temp sibling + fsync + rename via
// internal/atomicio), so the path always holds either the previous
// complete record or the new one — a torn write is impossible to observe,
// and any bit flip that survives the filesystem fails the checksum and
// surfaces as ErrCheckpointCorrupt rather than wrong pixels.

// ckptMagic opens every checkpoint record.
var ckptMagic = [8]byte{'P', 'I', 'M', 'G', 'C', 'K', 'P', 'T'}

// ckptVersion is the current record version; readers reject others.
const ckptVersion = 3

// checkpoint is the in-memory form of one record.
type checkpoint struct {
	// Fingerprint.
	conn       image.Connectivity
	mode       seq.Mode
	bandRows   int
	topK       int
	width      int
	height     int
	maxVal     int
	dataOffset int64
	header     []byte // the input's raw bytes [0, dataOffset)

	// Resume point: the census pass continues at band index nextBand
	// (0-based); bands [0, nextBand) are committed below.
	nextBand int

	// Frontier after band nextBand-1.
	stripComps, links, closed, fg int64
	prevPix                       []uint32 // bottom pixel row of band nextBand-1
	slotRow                       []uint32 // its slot row
	slotRoot                      []uint64
	slotSize                      []int64
	top                           []Component // Result.Top's order
	merges                        []uint64    // (larger root, smaller root) pairs
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ckptEncoder writes little-endian fields, latching the first error.
type ckptEncoder struct {
	w   io.Writer
	buf [8]byte
	err error
}

func (e *ckptEncoder) raw(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *ckptEncoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.raw(e.buf[:4])
}

func (e *ckptEncoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.raw(e.buf[:])
}

// writeFile commits the record to path crash-atomically.
func (c *checkpoint) writeFile(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		crc := crc32.New(crcTable)
		e := &ckptEncoder{w: io.MultiWriter(bw, crc)}
		e.raw(ckptMagic[:])
		e.u32(ckptVersion)
		e.u32(uint32(c.conn))
		e.u32(uint32(c.mode))
		e.u64(uint64(c.bandRows))
		e.u64(uint64(c.topK))
		e.u64(uint64(c.width))
		e.u64(uint64(c.height))
		e.u64(uint64(c.maxVal))
		e.u64(uint64(c.dataOffset))
		e.u64(uint64(len(c.header)))
		e.raw(c.header)
		e.u64(uint64(c.nextBand))
		for _, v := range [...]int64{c.stripComps, c.links, c.closed, c.fg} {
			e.u64(uint64(v))
		}
		for _, row := range [2][]uint32{c.prevPix, c.slotRow} {
			e.u64(uint64(len(row)))
			for _, v := range row {
				e.u32(v)
			}
		}
		e.u64(uint64(len(c.slotRoot)))
		for s, r := range c.slotRoot {
			e.u64(r)
			e.u64(uint64(c.slotSize[s]))
		}
		e.u64(uint64(len(c.top)))
		for _, t := range c.top {
			e.u64(t.Label)
			e.u64(uint64(t.Size))
		}
		e.u64(uint64(len(c.merges) / 2))
		for _, v := range c.merges {
			e.u64(v)
		}
		if e.err != nil {
			return e.err
		}
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
		if _, err := bw.Write(tail[:]); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// ckptDecoder reads little-endian fields from a byte slice, latching
// truncation; callers check bad once at the end.
type ckptDecoder struct {
	data []byte
	off  int
	bad  bool
}

func (d *ckptDecoder) raw(n int) []byte {
	if d.bad || n < 0 || n > len(d.data)-d.off {
		d.bad = true
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *ckptDecoder) u32() uint32 {
	b := d.raw(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *ckptDecoder) u64() uint64 {
	b := d.raw(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// remaining returns the unread byte count, for pre-allocation bounds.
func (d *ckptDecoder) remaining() int { return len(d.data) - d.off }

// loadCheckpoint reads and structurally validates a checkpoint record:
// magic, version, checksum, and field plausibility. Every failure is an
// ErrCheckpointCorrupt; fingerprint comparison against the live run is
// the caller's job (checkpoint.matches).
func loadCheckpoint(path string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, errs.Bad(op, "reading checkpoint: %v", err)
	}
	if len(data) < len(ckptMagic)+8 {
		return nil, errs.CheckpointCorrupt(op, "checkpoint %s holds %d bytes, too short for a record", path, len(data))
	}
	if !bytes.Equal(data[:len(ckptMagic)], ckptMagic[:]) {
		return nil, errs.CheckpointCorrupt(op, "checkpoint %s does not start with the record magic", path)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != ckptVersion {
		return nil, errs.CheckpointCorrupt(op, "checkpoint %s is record version %d; this build reads version %d", path, v, ckptVersion)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, errs.CheckpointCorrupt(op, "checkpoint %s fails its checksum (stored %08x, computed %08x)", path, want, got)
	}

	d := &ckptDecoder{data: body, off: len(ckptMagic) + 4}
	c := &checkpoint{
		conn:       image.Connectivity(d.u32()),
		mode:       seq.Mode(d.u32()),
		bandRows:   int(d.u64()),
		topK:       int(d.u64()),
		width:      int(d.u64()),
		height:     int(d.u64()),
		maxVal:     int(d.u64()),
		dataOffset: int64(d.u64()),
	}
	hlen := int(d.u64())
	if hlen < 0 || hlen > image.MaxStreamHeaderBytes {
		return nil, errs.CheckpointCorrupt(op, "checkpoint %s declares a %d-byte input header", path, hlen)
	}
	c.header = append([]byte(nil), d.raw(hlen)...)
	c.nextBand = int(d.u64())
	c.stripComps, c.links, c.closed, c.fg = int64(d.u64()), int64(d.u64()), int64(d.u64()), int64(d.u64())

	// count reads a section's entry count, bounded by the bytes left so a
	// crafted count cannot force a large allocation.
	count := func(entryBytes int, what string) (int, error) {
		n := int(d.u64())
		if n < 0 || n > d.remaining()/entryBytes {
			return 0, errs.CheckpointCorrupt(op, "checkpoint %s declares %d %s past its own size", path, n, what)
		}
		return n, nil
	}
	for _, row := range [2]*[]uint32{&c.prevPix, &c.slotRow} {
		n, err := count(4, "boundary columns")
		if err != nil {
			return nil, err
		}
		*row = make([]uint32, n)
		for i := range *row {
			(*row)[i] = d.u32()
		}
	}
	nslot, err := count(16, "open components")
	if err != nil {
		return nil, err
	}
	c.slotRoot, c.slotSize = make([]uint64, nslot), make([]int64, nslot)
	for s := range c.slotRoot {
		c.slotRoot[s], c.slotSize[s] = d.u64(), int64(d.u64())
	}
	ntop, err := count(16, "top-list entries")
	if err != nil {
		return nil, err
	}
	c.top = make([]Component, ntop)
	for i := range c.top {
		c.top[i] = Component{Label: d.u64(), Size: int64(d.u64())}
	}
	nmerge, err := count(16, "merges")
	if err != nil {
		return nil, err
	}
	c.merges = make([]uint64, 2*nmerge)
	for i := range c.merges {
		c.merges[i] = d.u64()
	}
	if d.bad || d.remaining() != 0 {
		return nil, errs.CheckpointCorrupt(op, "checkpoint %s record is truncated or carries trailing bytes", path)
	}
	if err := c.validate(); err != nil {
		return nil, errs.CheckpointCorrupt(op, "checkpoint %s %v", path, err)
	}
	return c, nil
}

// validate checks field plausibility: the checksum says the bytes are
// intact, but a crafted record must still fail typed instead of driving
// the pipeline into impossible state. Every index into the frontier and
// every count is checked, so no record can make the pipeline panic.
func (c *checkpoint) validate() error {
	if c.width < 1 || c.height < 1 || c.bandRows < 1 || c.topK < 0 || c.dataOffset < 0 ||
		c.stripComps < 0 || c.links < 0 || c.closed < 0 || c.fg < 0 {
		return fmt.Errorf("carries impossible geometry, options or tallies")
	}
	totalBands := (c.height + c.bandRows - 1) / c.bandRows
	if c.nextBand < 1 || c.nextBand > totalBands {
		return fmt.Errorf("resumes at band %d of %d", c.nextBand, totalBands)
	}
	if len(c.prevPix) != c.width || len(c.slotRow) != c.width {
		return fmt.Errorf("boundary rows hold %d/%d entries for width %d", len(c.prevPix), len(c.slotRow), c.width)
	}
	if len(c.slotRoot) > c.width {
		return fmt.Errorf("holds %d open components, more than its width %d", len(c.slotRoot), c.width)
	}
	// Slots are numbered in first-seen column order, each on some
	// foreground column; background columns hold 0.
	seen := 0
	for j, s := range c.slotRow {
		switch {
		case c.prevPix[j] == 0 && s != 0:
			return fmt.Errorf("gives background column %d slot %d", j, s)
		case c.prevPix[j] == 0:
		case int(s) > seen || int(s) >= len(c.slotRoot):
			return fmt.Errorf("gives column %d slot %d past its %d open components", j, s, len(c.slotRoot))
		case int(s) == seen:
			seen++
		}
	}
	if seen != len(c.slotRoot) {
		return fmt.Errorf("holds %d open components, its slot row names %d", len(c.slotRoot), seen)
	}
	// A root is a seed of a committed row.
	seeds := uint64(min(c.nextBand*c.bandRows, c.height)) * uint64(c.width)
	for s, r := range c.slotRoot {
		if r < 1 || r > seeds || c.slotSize[s] < 1 {
			return fmt.Errorf("holds open component %d with root %d and size %d", s, r, c.slotSize[s])
		}
	}
	if len(c.top) > c.topK {
		return fmt.Errorf("holds %d top-list entries for TopK %d", len(c.top), c.topK)
	}
	for i, t := range c.top {
		if t.Label < 1 || t.Size < 1 || i > 0 && !below(t, c.top[i-1]) {
			return fmt.Errorf("holds top-list entry %d out of order or impossible", i)
		}
	}
	for k := 0; k < len(c.merges); k += 2 {
		if larger, smaller := c.merges[k], c.merges[k+1]; smaller < 1 || smaller >= larger {
			return fmt.Errorf("holds merge %d of root %d into %d, not a smaller root", k/2, larger, smaller)
		}
	}
	return nil
}

// matches compares the checkpoint's fingerprint against the live run:
// the freshly read input header bytes and geometry, and the resume
// options that shape the labeling. Any drift is an ErrCheckpointMismatch —
// resuming would replay seams against the wrong rows and silently emit
// wrong pixels, which is exactly what the typed refusal prevents.
func (c *checkpoint) matches(hdr image.PGMHeader, header []byte,
	conn image.Connectivity, mode seq.Mode, bandRows, topK int) error {
	if c.width != hdr.Width || c.height != hdr.Height || c.maxVal != hdr.MaxVal || c.dataOffset != hdr.DataOffset {
		return errs.CheckpointMismatch(op,
			"checkpoint is for a %dx%d maxval-%d input (data at %d); this input is %dx%d maxval-%d (data at %d)",
			c.width, c.height, c.maxVal, c.dataOffset, hdr.Width, hdr.Height, hdr.MaxVal, hdr.DataOffset)
	}
	if !bytes.Equal(c.header, header) {
		return errs.CheckpointMismatch(op, "checkpoint was written for an input with different header bytes")
	}
	if c.conn != conn {
		return errs.CheckpointMismatch(op, "checkpoint was written with %v, resume asks for %v", c.conn, conn)
	}
	if c.mode != mode {
		return errs.CheckpointMismatch(op, "checkpoint was written in %v mode, resume asks for %v", c.mode, mode)
	}
	if c.bandRows != bandRows {
		return errs.CheckpointMismatch(op, "checkpoint was written with %d-row bands, resume asks for %d", c.bandRows, bandRows)
	}
	if c.topK != topK {
		return errs.CheckpointMismatch(op, "checkpoint keeps the %d largest components, resume asks for %d", c.topK, topK)
	}
	return nil
}

// readHeaderBytes fetches the input's raw header region [0, DataOffset) —
// the strongest practical fingerprint of "the same file": any edit to the
// header (dimensions, maxval, even a comment) changes these bytes.
func readHeaderBytes(r io.ReaderAt, hdr image.PGMHeader) ([]byte, error) {
	b := make([]byte, hdr.DataOffset)
	if _, err := r.ReadAt(b, 0); err != nil {
		return nil, errs.Bad(op, "re-reading the PGM header for the checkpoint fingerprint: %v", err)
	}
	return b, nil
}

// saveCheckpoint captures the pipeline's frontier after band nextBand-1
// committed and writes it durably; timed by the caller under the
// checkpoint_write phase.
func (p *pipeline) saveCheckpoint(nextBand int) error {
	f := p.fr
	c := &checkpoint{
		conn:       p.conn,
		mode:       p.mode,
		bandRows:   p.bandRows,
		topK:       f.topK,
		width:      p.hdr.Width,
		height:     p.hdr.Height,
		maxVal:     p.hdr.MaxVal,
		dataOffset: p.hdr.DataOffset,
		header:     p.hdrBytes,
		nextBand:   nextBand,
		stripComps: f.stripComps,
		links:      f.links,
		closed:     f.closed,
		fg:         f.fg,
		prevPix:    f.prevPix,
		slotRow:    f.slotRow,
		slotRoot:   f.slotRoot,
		slotSize:   f.slotSize,
		top:        f.sortedTop(),
		merges:     f.merges,
	}
	if err := c.writeFile(p.ckptPath); err != nil {
		return errs.Bad(op, "writing checkpoint %s: %v", p.ckptPath, err)
	}
	return nil
}

// restore installs a validated checkpoint's frontier into the pipeline and
// returns the band index the census pass continues at.
func (p *pipeline) restore(c *checkpoint) int {
	f := p.fr
	f.stripComps, f.links, f.closed, f.fg = c.stripComps, c.links, c.closed, c.fg
	f.prevPix, f.slotRow = c.prevPix, c.slotRow
	f.slotRoot, f.slotSize = c.slotRoot, c.slotSize
	// Reversed, Result.Top's order ranks every entry below the ones after
	// it: a valid heap for offer.
	f.top = c.top
	slices.Reverse(f.top)
	f.merges = c.merges
	return c.nextBand
}
