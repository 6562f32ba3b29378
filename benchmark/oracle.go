package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"sort"
	"unsafe"

	"parimg/internal/image"
	"parimg/internal/seq"
	"parimg/internal/stream"
)

// castagnoli is the CRC-32C table every output fingerprint uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// topK is the census depth of both stream workloads.
const topK = 16

// tiledOracle computes, independently of the engines under test, what
// stream.Label must return for an image assembled from tiles whose
// foreground never touches another tile (each tile's last row or column is
// background). Components therefore never cross a tile edge, so labeling
// every tile on its own with the sequential BFS labeler and lifting the
// tile-local seeds (row-major index + 1) to global ones gives the whole
// image's census. With render set, it also fingerprints the dense label
// PGM: labels renumbered 1..components in row-major first-seen order,
// which for stacked full-width tiles is each tile's own first-seen order
// offset by the components of the tiles above it.
type tiledOracle struct {
	conn   image.Connectivity
	mode   seq.Mode
	width  int
	height int
	render bool

	comps, fg int64
	all       []stream.Component
	bfs       seq.Labeler
	lab       []uint32

	// Render state. The sample width (one byte up to 255 components, two
	// beyond) is only known once every tile is labeled, so the samples are
	// hashed at both widths and finish keeps the one the count selects.
	remap  map[uint64]uint32
	next   uint32
	s1, s2 hash.Hash32
	row    []byte
}

func newTiledOracle(width, height int, conn image.Connectivity, mode seq.Mode, render bool) *tiledOracle {
	o := &tiledOracle{conn: conn, mode: mode, width: width, height: height, render: render}
	if render {
		o.remap = make(map[uint64]uint32)
		o.s1 = crc32.New(castagnoli)
		o.s2 = crc32.New(castagnoli)
	}
	return o
}

// addTile labels the rows x cols tile pix placed with its top-left pixel
// at (r0, c0) of the image and folds it into the census. Rendering needs
// full-width tiles added top to bottom.
func (o *tiledOracle) addTile(pix []uint32, rows, cols, r0, c0 int) {
	if o.render && (c0 != 0 || cols != o.width) {
		// Invariant panic: only stacked full-width tiles are rendered.
		panic("tiledOracle: rendering needs full-width tiles")
	}
	if cap(o.lab) < rows*cols {
		o.lab = make([]uint32, rows*cols)
	}
	lab := o.lab[:rows*cols]
	clear(lab)
	comps := o.bfs.LabelTile(pix, rows, cols, o.conn, o.mode,
		func(i, j int) uint32 { return uint32(i*cols+j) + 1 }, lab)
	o.comps += int64(comps)

	global := func(l uint32) uint64 {
		i, j := int(l-1)/cols, int(l-1)%cols
		return uint64(r0+i)*uint64(o.width) + uint64(c0+j) + 1
	}
	sizes := make(map[uint32]int64, comps)
	for _, l := range lab {
		if l != 0 {
			sizes[l]++
		}
	}
	for l, s := range sizes {
		o.fg += s
		o.all = append(o.all, stream.Component{Label: global(l), Size: s})
	}
	if o.render {
		o.renderRows(lab, rows, cols, global)
	}
}

func (o *tiledOracle) renderRows(lab []uint32, rows, cols int, global func(uint32) uint64) {
	if cap(o.row) < 3*cols {
		o.row = make([]byte, 3*cols)
	}
	r1, r2 := o.row[:cols], o.row[cols:3*cols]
	for i := 0; i < rows; i++ {
		var last, id uint32
		for j, l := range lab[i*cols : (i+1)*cols] {
			if l != last {
				last, id = l, 0
				if l != 0 {
					g := global(l)
					var ok bool
					if id, ok = o.remap[g]; !ok {
						o.next++
						id = o.next
						o.remap[g] = id
					}
				}
			}
			r1[j] = byte(id)
			binary.BigEndian.PutUint16(r2[2*j:], uint16(id))
		}
		o.s1.Write(r1)
		o.s2.Write(r2)
	}
}

// census returns the expected component count, foreground and top-K.
func (o *tiledOracle) census() (comps, fg int64, top []stream.Component) {
	sort.Slice(o.all, func(a, b int) bool {
		if o.all[a].Size != o.all[b].Size {
			return o.all[a].Size > o.all[b].Size
		}
		return o.all[a].Label < o.all[b].Label
	})
	top = o.all
	if len(top) > topK {
		top = top[:topK]
	}
	return o.comps, o.fg, top
}

// pgmFingerprint returns the fingerprint of the rendered label PGM.
func (o *tiledOracle) pgmFingerprint() uint32 {
	maxval := int(o.comps)
	if maxval == 0 {
		maxval = 1
	}
	samples := o.s1
	if maxval > 255 {
		samples = o.s2
	}
	return pgmFingerprint(fmt.Sprintf("P5\n%d %d\n%d\n", o.width, o.height, maxval), samples.Sum32())
}

// streamFingerprint returns the fingerprint of the stream.Label result the
// tiles must produce (the label PGM's included when rendering).
func (o *tiledOracle) streamFingerprint() uint32 {
	comps, fg, top := o.census()
	var pgm uint32
	if o.render {
		pgm = o.pgmFingerprint()
	}
	return fpStream(comps, fg, top, pgm)
}

// fpStream fingerprints a streaming census plus the fingerprint of its
// label PGM (0 when no label output was written).
func fpStream(comps, fg int64, top []stream.Component, pgm uint32) uint32 {
	h := crc32.New(castagnoli)
	fmt.Fprintf(h, "components=%d foreground=%d pgm=%08x top=", comps, fg, pgm)
	for _, c := range top {
		fmt.Fprintf(h, "%d:%d,", c.Label, c.Size)
	}
	return h.Sum32()
}

// fpLabels fingerprints a resident labeling: the label plane's bytes and
// the component count.
func fpLabels(lab []uint32, comps int) uint32 {
	var b []byte
	if len(lab) > 0 {
		b = unsafe.Slice((*byte)(unsafe.Pointer(&lab[0])), 4*len(lab))
	}
	c := crc32.Update(0, castagnoli, b)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(comps))
	return crc32.Update(c, castagnoli, n[:])
}

// pgmFingerprint combines a PGM header with the CRC-32C of its samples.
func pgmFingerprint(header string, samples uint32) uint32 {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], samples)
	return crc32.Update(crc32.Checksum([]byte(header), castagnoli), castagnoli, b[:])
}

// pgmHash is the io.Writer side of pgmFingerprint: it takes a P5 PGM as
// written (three newline-terminated header lines, then samples) and hashes
// the samples as they stream past, so a 256 MiB label output is checked
// without being stored.
type pgmHash struct {
	header  []byte
	lines   int
	samples hash.Hash32
}

func newPGMHash() *pgmHash { return &pgmHash{samples: crc32.New(castagnoli)} }

func (h *pgmHash) Write(p []byte) (int, error) {
	n := len(p)
	for h.lines < 3 && len(p) > 0 {
		h.header = append(h.header, p[0])
		if p[0] == '\n' {
			h.lines++
		}
		p = p[1:]
	}
	h.samples.Write(p)
	return n, nil
}

// Sum32 returns the pgmFingerprint of everything written.
func (h *pgmHash) Sum32() uint32 { return pgmFingerprint(string(h.header), h.samples.Sum32()) }
