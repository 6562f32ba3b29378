package image_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// oracleLabelPGM renders a labeling the per-pixel way: one map lookup per
// foreground pixel, ids issued in row-major first-seen order, then the
// header and the samples at the width the id count selects. It returns the
// PGM and the component count.
func oracleLabelPGM(lab []uint32, rows, cols int) ([]byte, int) {
	ids := make(map[uint32]uint32)
	dense := make([]uint32, len(lab))
	for i, l := range lab {
		if l == 0 {
			continue
		}
		id, ok := ids[l]
		if !ok {
			id = uint32(len(ids)) + 1
			ids[l] = id
		}
		dense[i] = id
	}
	maxVal := max(1, len(ids))
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "P5\n%d %d\n%d\n", cols, rows, maxVal)
	for _, v := range dense {
		if maxVal > 255 {
			buf.WriteByte(byte(v >> 8))
		}
		buf.WriteByte(byte(v))
	}
	return buf.Bytes(), len(ids)
}

// writeWhole renders lab through the writer in one WriteRows call with a
// nil root, the way the labeling service hands over a resident labeling.
func writeWhole(t *testing.T, lab []uint32, rows, cols, comps int) []byte {
	t.Helper()
	var out bytes.Buffer
	lw, err := image.NewLabelPGMWriter(&out, cols, rows, int64(comps))
	if err != nil {
		t.Fatalf("NewLabelPGMWriter: %v", err)
	}
	if err := lw.WriteRows(lab, nil); err != nil {
		t.Fatalf("WriteRows: %v", err)
	}
	if err := lw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out.Bytes()
}

// writeBands renders lab through the writer bandRows rows at a time, each
// band in its own label space the way streamed bands arrive: band-local
// ids 1..k in the band's first-seen order, and a root that lifts each one
// back to its global label, offset past the 32-bit range. Equal local ids
// in adjacent bands name different components, and one component carries
// different local ids in different bands, so the ids must be keyed by
// root and no run may continue across calls. Each band goes through
// WriteRows, or, with spans set, through the span entry: one WriteSpan
// per maximal run of one label, running on across row ends the way the
// spans of a streamed band's runs do.
func writeBands(t *testing.T, lab []uint32, rows, cols, comps, bandRows int, spans bool) []byte {
	t.Helper()
	var out bytes.Buffer
	lw, err := image.NewLabelPGMWriter(&out, cols, rows, int64(comps))
	if err != nil {
		t.Fatalf("NewLabelPGMWriter: %v", err)
	}
	local := make([]uint32, bandRows*cols)
	for r0 := 0; r0 < rows; r0 += bandRows {
		band := lab[r0*cols : min(rows, r0+bandRows)*cols]
		var lifted []uint64 // band-local id - 1 -> root
		seen := make(map[uint32]uint32)
		for i, l := range band {
			if l == 0 {
				local[i] = 0
				continue
			}
			id, ok := seen[l]
			if !ok {
				lifted = append(lifted, uint64(l)+1<<40)
				id = uint32(len(lifted))
				seen[l] = id
			}
			local[i] = id
		}
		ids := local[:len(band)]
		if !spans {
			err = lw.WriteRows(ids, func(l uint32) uint64 { return lifted[l-1] })
		}
		for i := 0; spans && err == nil && i < len(ids); {
			l, k := ids[i], i+1
			for k < len(ids) && ids[k] == l {
				k++
			}
			var root uint64
			if l != 0 {
				root = lifted[l-1]
			}
			err = lw.WriteSpan(k-i, root)
			i = k
		}
		if err != nil {
			t.Fatalf("band at row %d: %v", r0, err)
		}
	}
	if err := lw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out.Bytes()
}

// block returns a rows x cols labeling of k dots in its first rows, then
// background rows, then one component filling every row from row top on:
// one span of several 64 KiB buffers.
func block(rows, cols, k, top int) []uint32 {
	lab := dots(rows, cols, k)
	for p := top * cols; p < len(lab); p++ {
		lab[p] = uint32(top*cols) + 1
	}
	return lab
}

// dots returns a rows x cols labeling of k isolated one-pixel components,
// every other pixel of every other row, each labeled with its row-major
// index + 1.
func dots(rows, cols, k int) []uint32 {
	lab := make([]uint32, rows*cols)
	for i := 0; i < k; i++ {
		p := (2*i/cols)*2*cols + 2*i%cols
		lab[p] = uint32(p) + 1
	}
	return lab
}

// TestLabelPGMWriterMatchesOracle checks the writer byte for byte against
// the per-pixel oracle on catalog, DARPA, random and synthetic labelings,
// written whole, and in bands of 1, 7 and all rows through WriteRows and
// through the span entry. The synthetic ones pin the sample width: 0
// components (maxval 1, every row background), 1 and 255 (one-byte
// samples), 256 and 1000 (two-byte samples). The larger labelings span
// several output chunks, so runs cross chunk boundaries; the block ones
// end in one component whose span alone fills several buffers, after
// all-background rows, at each sample width.
func TestLabelPGMWriterMatchesOracle(t *testing.T) {
	type labeling struct {
		name       string
		lab        []uint32
		rows, cols int
	}
	label := func(name string, im *image.Image, conn image.Connectivity, mode seq.Mode) labeling {
		return labeling{name, seq.LabelBFS(im, conn, mode).Lab, im.N, im.N}
	}
	var cases []labeling
	for _, id := range image.AllPatterns() {
		cases = append(cases, label(id.String(), image.Generate(id, 300), image.Conn8, seq.Binary))
	}
	cases = append(cases,
		label("darpa-grey", image.DARPAScene(256, 16, 2), image.Conn8, seq.Grey),
		label("darpa-binary", image.DARPAScene(128, 16, 1), image.Conn4, seq.Binary),
		label("random-binary", image.RandomBinary(300, 0.4, 5), image.Conn4, seq.Binary),
		label("random-grey", image.RandomGrey(64, 4, 3), image.Conn8, seq.Grey),
	)
	wide := image.RandomBinary(300, 0.5, 9)
	tile := make([]uint32, 37*300)
	seq.TileLabeler(wide.Pix[:37*300], 37, 300, image.Conn8, seq.Binary,
		func(i, j int) uint32 { return uint32(i*300+j) + 1 }, tile, nil)
	cases = append(cases, labeling{"random-37x300", tile, 37, 300})
	for _, k := range []int{0, 1, 255, 256, 1000} {
		cases = append(cases, labeling{fmt.Sprintf("dots-%d", k), dots(64, 64, k), 64, 64})
	}
	for _, k := range []int{10, 400} {
		cases = append(cases, labeling{fmt.Sprintf("block-%d", k), block(300, 401, k, 9), 300, 401})
	}

	for _, c := range cases {
		want, comps := oracleLabelPGM(c.lab, c.rows, c.cols)
		if c.name == "random-binary" && comps <= 255 {
			t.Fatalf("random-binary has %d components; it should exercise two-byte samples", comps)
		}
		if got := writeWhole(t, c.lab, c.rows, c.cols, comps); !bytes.Equal(got, want) {
			t.Errorf("%s (%d components) written whole differs from the oracle", c.name, comps)
		}
		for _, bandRows := range []int{1, 7, c.rows} {
			for _, spans := range []bool{false, true} {
				if got := writeBands(t, c.lab, c.rows, c.cols, comps, bandRows, spans); !bytes.Equal(got, want) {
					t.Errorf("%s (%d components) in %d-row bands (spans %v) differs from the oracle",
						c.name, comps, bandRows, spans)
				}
			}
		}
	}

	for _, tc := range []struct {
		k      int
		header string
		sample int
	}{
		{0, "P5\n64 64\n1\n", 1},
		{255, "P5\n64 64\n255\n", 1},
		{256, "P5\n64 64\n256\n", 2},
	} {
		got := writeWhole(t, dots(64, 64, tc.k), 64, 64, tc.k)
		if !bytes.HasPrefix(got, []byte(tc.header)) || len(got) != len(tc.header)+64*64*tc.sample {
			t.Errorf("%d components: %d bytes starting %q, want header %q and %d-byte samples",
				tc.k, len(got), got[:min(len(got), 16)], tc.header, tc.sample)
		}
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestLabelPGMWriterRefusals covers every way the writer says no: a count
// past the 16-bit sample ceiling (refused before any byte is written), a
// labeling with more or fewer components than its header declares, more
// or fewer pixels than the header declares, a span that overruns the
// image or has a negative length (refused before any of it is written,
// so the image can still be completed), and a failing underlying writer.
func TestLabelPGMWriterRefusals(t *testing.T) {
	for _, comps := range []int64{image.MaxPGMVal + 1, 80000, -1} {
		var out bytes.Buffer
		lw, err := image.NewLabelPGMWriter(&out, 400, 400, comps)
		if !errors.Is(err, errs.ErrBadInput) || lw != nil {
			t.Errorf("%d components: writer %v, error %v; want a refusal with ErrBadInput", comps, lw, err)
		}
		if out.Len() != 0 {
			t.Errorf("%d components: %d bytes written before the refusal", comps, out.Len())
		}
	}
	if _, err := image.NewLabelPGMWriter(&bytes.Buffer{}, 0, 4, 0); !errors.Is(err, errs.ErrGeometry) {
		t.Errorf("zero width: error %v, want ErrGeometry", err)
	}
	if _, err := image.NewLabelPGMWriter(&bytes.Buffer{}, 4, 4, image.MaxPGMVal); err != nil {
		t.Errorf("%d components refused: %v", image.MaxPGMVal, err)
	}

	three := dots(4, 4, 3)
	for _, tc := range []struct {
		name  string
		comps int64
		rows  [][]uint32
	}{
		{"more-components-than-declared", 2, [][]uint32{three}},
		{"fewer-components-than-declared", 4, [][]uint32{three}},
		{"pixels-past-height", 3, [][]uint32{three, three[:4]}},
		{"pixels-missing", 3, [][]uint32{three[:6]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			lw, err := image.NewLabelPGMWriter(&out, 4, 4, tc.comps)
			if err != nil {
				t.Fatal(err)
			}
			for _, rows := range tc.rows {
				if err = lw.WriteRows(rows, nil); err != nil {
					break
				}
			}
			if err == nil {
				err = lw.Close()
			}
			if !errors.Is(err, errs.ErrBadInput) {
				t.Fatalf("error %v, want ErrBadInput", err)
			}
			if out.Len() != 0 {
				t.Fatalf("a failed label PGM wrote %d bytes", out.Len())
			}
		})
	}

	var out bytes.Buffer
	lw, err := image.NewLabelPGMWriter(&out, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.WriteSpan(10, 7); err != nil {
		t.Fatalf("WriteSpan inside the image: %v", err)
	}
	for _, n := range []int{7, -1} {
		if err := lw.WriteSpan(n, 7); !errors.Is(err, errs.ErrBadInput) {
			t.Fatalf("a %d-sample span with 6 pixels left: error %v, want ErrBadInput", n, err)
		}
	}
	if err := lw.WriteRows(make([]uint32, 7), nil); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("7 labels with 6 pixels left: error %v, want ErrBadInput", err)
	}
	if err := lw.WriteSpan(6, 0); err != nil {
		t.Fatalf("WriteSpan completing the image: %v", err)
	}
	if err := lw.Close(); err != nil {
		t.Fatalf("Close after refused spans: %v", err)
	}
	want, _ := oracleLabelPGM([]uint32{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 0, 0, 0, 0, 0}, 4, 4)
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("after refused spans the PGM is %q, want %q", out.Bytes(), want)
	}

	lw, err = image.NewLabelPGMWriter(failWriter{}, 4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.WriteRows(three, nil); err != nil {
		t.Fatalf("WriteRows into the buffer: %v", err)
	}
	if err := lw.Close(); err == nil {
		t.Fatal("Close over a failing writer reported success")
	}
}
