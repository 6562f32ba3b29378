package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"parimg/internal/image"
	"parimg/internal/seq"
	"parimg/internal/serve"
	"parimg/internal/stream"
)

// sizes fixes every workload's input dimensions and pacing. fullSizes is
// the benchmark; toySizes is -short, small enough that all four workloads
// run in a few seconds.
type sizes struct {
	ResidentN     int     // side of the three resident inputs
	LabelTile     int     // stream-label: two DARPA tiles of this side, stacked
	NoiseTile     int     // stream-noise: eight random tiles of this side, side by side
	NoiseBandRows int     // stream-noise band height
	ServeSmallN   int     // side of the grey census bodies
	ServeLargeN   int     // side of the binary label-PGM bodies
	ServeSmall    int     // number of grey census bodies
	ServeLarge    int     // number of binary label-PGM bodies
	ServeRate     float64 // open-loop request rate, per second
	SetupReps     int     // minimum cold set-ups per run; setup_s is their median
	// Window is the operation time of one window of a closed-loop leg
	// (see interleave).
	Window time.Duration
}

var (
	fullSizes = sizes{ResidentN: 4096, LabelTile: 8192, NoiseTile: 2048, NoiseBandRows: 8,
		ServeSmallN: 256, ServeLargeN: 1024, ServeSmall: 32, ServeLarge: 8, ServeRate: 300, SetupReps: 5,
		Window: 250 * time.Millisecond}
	toySizes = sizes{ResidentN: 256, LabelTile: 256, NoiseTile: 64, NoiseBandRows: 8,
		ServeSmallN: 64, ServeLargeN: 128, ServeSmall: 4, ServeLarge: 2, ServeRate: 200, SetupReps: 2,
		Window: 20 * time.Millisecond}
)

// headRows is the height of a stream workload's set-up head: one default
// band budget of rows, the whole image if it is shorter.
func headRows(width, height int) int {
	return min(height, max(1, stream.DefaultMaxBandPixels/width))
}

// noiseDensity is the random binary inputs' foreground density, just below
// the Conn4 percolation threshold.
const noiseDensity = 0.59

// workloadNames lists the workloads in the order an all-workload run
// executes them.
var workloadNames = []string{"resident", "stream-label", "stream-noise", "serve"}

// input is one generated input file and how the workload feeds it to the
// program.
type input struct {
	Key      string `json:"key"`
	File     string `json:"file"`
	Conn     int    `json:"conn"`
	Grey     bool   `json:"grey,omitempty"`
	Pixels   int64  `json:"pixels"`
	Query    string `json:"query,omitempty"`     // serve: POST /label query
	Large    bool   `json:"large,omitempty"`     // serve: a label-PGM body
	BandRows int    `json:"band_rows,omitempty"` // stream: 0 = default band budget
	Label    bool   `json:"label,omitempty"`     // stream: write the label PGM
	Head     int    `json:"head,omitempty"`      // stream: rows of the set-up head
}

func (in *input) conn() image.Connectivity { return image.Connectivity(in.Conn) }

func (in *input) mode() seq.Mode {
	if in.Grey {
		return seq.Grey
	}
	return seq.Binary
}

// headKey is the output key of a stream workload's set-up operations,
// which label only the input's head rows.
func headKey(key string) string { return key + "/head" }

// manifest is everything a workload child needs: the generated inputs and
// the run parameters. The oracle stays with the parent.
type manifest struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Workers  int     `json:"workers"`
	Sizes    sizes   `json:"sizes"`
	Inputs   []input `json:"inputs"`
}

// subSeed derives the seed of one generated input from the run seed
// (splitmix64), so inputs are independent of each other yet fixed by the
// seed.
func subSeed(seed uint64, k uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + k*0xbf58476d1ce4e5b9 + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// prepare generates the workload's inputs from the seed into dir and
// computes the oracle: the fingerprint every output of each input key must
// have.
func prepare(m *manifest, dir string) (map[string]uint32, error) {
	oracle := make(map[string]uint32)
	var err error
	switch m.Workload {
	case "resident":
		err = prepareResident(m, dir, oracle)
	case "stream-label":
		err = prepareStreamLabel(m, dir, oracle)
	case "stream-noise":
		err = prepareStreamNoise(m, dir, oracle)
	case "serve":
		err = prepareServe(m, dir, oracle)
	default:
		err = fmt.Errorf("unknown workload %q", m.Workload)
	}
	return oracle, err
}

// prepareResident writes the three interleaved resident inputs: a dual
// spiral (binary, Conn8), random binary noise (Conn4) and a DARPA scene
// (grey, Conn8), each labeled by seq.LabelBFS for the oracle.
func prepareResident(m *manifest, dir string, oracle map[string]uint32) error {
	n := m.Sizes.ResidentN
	ims := []struct {
		im   *image.Image
		conn image.Connectivity
		grey bool
	}{
		{image.GenDualSpiral(n), image.Conn8, false},
		{image.RandomBinary(n, noiseDensity, subSeed(m.Seed, 1)), image.Conn4, false},
		{image.DARPAScene(n, 256, subSeed(m.Seed, 2)), image.Conn8, true},
	}
	for i, x := range ims {
		in := input{Key: fmt.Sprintf("resident-%d", i), File: filepath.Join(dir, fmt.Sprintf("resident-%d.pgm", i)),
			Conn: int(x.conn), Grey: x.grey, Pixels: int64(n) * int64(n)}
		if err := writeImage(in.File, x.im); err != nil {
			return err
		}
		want, comps := labelBFS(x.im, x.conn, in.mode())
		oracle[in.Key] = fpLabels(want.Lab, comps)
		m.Inputs = append(m.Inputs, in)
	}
	return nil
}

// prepareStreamLabel writes two DARPA scenes stacked into one tall grey
// PGM, each tile's last row cleared, and fingerprints the census and dense
// label PGM that labeling it (and its set-up head) must produce.
func prepareStreamLabel(m *manifest, dir string, oracle map[string]uint32) error {
	t := m.Sizes.LabelTile
	head := headRows(t, 2*t)
	in := input{Key: "stream-label", File: filepath.Join(dir, "stream-label.pgm"), Conn: int(image.Conn8),
		Grey: true, Pixels: 2 * int64(t) * int64(t), Label: true, Head: head}
	full := newTiledOracle(t, 2*t, in.conn(), in.mode(), true)
	headOracle := newTiledOracle(t, head, in.conn(), in.mode(), true)
	err := writeSynced(in.File, func(w io.Writer) {
		fmt.Fprintf(w, "P5\n%d %d\n255\n", t, 2*t)
		row := make([]byte, t)
		for k := 0; k < 2; k++ {
			im := image.DARPAScene(t, 256, subSeed(m.Seed, 10+uint64(k)))
			clear(im.Pix[(t-1)*t:])
			for i := 0; i < t; i++ {
				for j, v := range im.Pix[i*t : (i+1)*t] {
					row[j] = byte(v)
				}
				w.Write(row)
			}
			if hr := min(t, head-k*t); hr > 0 {
				headOracle.addTile(im.Pix[:hr*t], hr, t, k*t, 0)
			}
			full.addTile(im.Pix, t, t, k*t, 0)
		}
	})
	if err != nil {
		return err
	}
	oracle[in.Key] = full.streamFingerprint()
	oracle[headKey(in.Key)] = headOracle.streamFingerprint()
	m.Inputs = append(m.Inputs, in)
	return nil
}

// prepareStreamNoise writes eight random binary tiles side by side into one
// wide PGM, each tile's last column cleared, and fingerprints the census
// that labeling it (and its set-up head) must produce.
func prepareStreamNoise(m *manifest, dir string, oracle map[string]uint32) error {
	const tiles = 8
	t := m.Sizes.NoiseTile
	width := tiles * t
	head := headRows(width, t)
	in := input{Key: "stream-noise", File: filepath.Join(dir, "stream-noise.pgm"), Conn: int(image.Conn4),
		Pixels: int64(width) * int64(t), BandRows: m.Sizes.NoiseBandRows, Head: head}
	full := newTiledOracle(width, t, in.conn(), in.mode(), false)
	headOracle := newTiledOracle(width, head, in.conn(), in.mode(), false)
	data := make([]byte, width*t)
	for k := 0; k < tiles; k++ {
		im := image.RandomBinary(t, noiseDensity, subSeed(m.Seed, 20+uint64(k)))
		for i := 0; i < t; i++ {
			im.Pix[i*t+t-1] = 0
			for j, v := range im.Pix[i*t : (i+1)*t] {
				data[i*width+k*t+j] = byte(v)
			}
		}
		full.addTile(im.Pix, t, t, 0, k*t)
		headOracle.addTile(im.Pix[:head*t], head, t, 0, k*t)
	}
	err := writeSynced(in.File, func(w io.Writer) {
		fmt.Fprintf(w, "P5\n%d %d\n255\n", width, t)
		w.Write(data)
	})
	if err != nil {
		return err
	}
	oracle[in.Key] = full.streamFingerprint()
	oracle[headKey(in.Key)] = headOracle.streamFingerprint()
	m.Inputs = append(m.Inputs, in)
	return nil
}

// prepareServe writes the request bodies: grey DARPA scenes posted for a
// JSON census, and binary random-blob images posted for a label PGM. The
// oracle is the CRC-32C of the exact JSON response (seq.LabelBFS census)
// or the fingerprint of the dense label PGM.
func prepareServe(m *manifest, dir string, oracle map[string]uint32) error {
	sz := m.Sizes
	for i := 0; i < sz.ServeSmall+sz.ServeLarge; i++ {
		large := i >= sz.ServeSmall
		in := input{Key: fmt.Sprintf("serve-%02d", i), File: filepath.Join(dir, fmt.Sprintf("serve-%02d.pgm", i)),
			Conn: int(image.Conn8)}
		var im *image.Image
		if large {
			im = image.RandomBlobs(sz.ServeLargeN, 64, subSeed(m.Seed, 100+uint64(i)))
			in.Large, in.Query = true, "out=pgm"
		} else {
			im = image.DARPAScene(sz.ServeSmallN, 256, subSeed(m.Seed, 100+uint64(i)))
			in.Grey, in.Query = true, "mode=grey&census=1"
		}
		in.Pixels = int64(im.N) * int64(im.N)
		if err := writeImage(in.File, im); err != nil {
			return err
		}
		want, comps := labelBFS(im, in.conn(), in.mode())
		if large {
			o := newTiledOracle(im.N, im.N, in.conn(), in.mode(), true)
			o.addTile(im.Pix, im.N, im.N, 0, 0)
			oracle[in.Key] = o.pgmFingerprint()
		} else {
			var body bytes.Buffer
			json.NewEncoder(&body).Encode(serve.LabelResponse{Components: comps, N: im.N, Census: want.Census(im)})
			oracle[in.Key] = crc32.Checksum(body.Bytes(), castagnoli)
		}
		m.Inputs = append(m.Inputs, in)
	}
	return nil
}

// labelBFS is seq.LabelBFS returning the component count as well.
func labelBFS(im *image.Image, conn image.Connectivity, mode seq.Mode) (*image.Labels, int) {
	var l seq.Labeler
	out := image.NewLabels(im.N)
	return out, l.LabelInto(im, conn, mode, out)
}

// writeImage writes im as an 8-bit P5 PGM.
func writeImage(path string, im *image.Image) error {
	var err error
	if werr := writeSynced(path, func(w io.Writer) { err = im.WritePGM(w, 255) }); err == nil {
		err = werr
	}
	return err
}

// writeSynced creates path, fills it through a buffered writer (whose
// first error Flush reports) and syncs it to disk, so that writing back
// the generated inputs never overlaps a child's measurement.
func writeSynced(path string, fill func(io.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fill(w)
	if err = w.Flush(); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readImage loads a square PGM written by writeImage into an exactly sized
// pixel array, so loading leaves no garbage to inflate the child's peak RSS.
func readImage(path string) (*image.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr, err := image.ReadPGMHeader(f)
	if err != nil {
		return nil, err
	}
	if hdr.Width != hdr.Height {
		return nil, fmt.Errorf("%s: %dx%d is not square", path, hdr.Width, hdr.Height)
	}
	n := hdr.Width
	im := &image.Image{N: n, Pix: make([]uint32, n*n)}
	var scratch []byte
	const chunk = 256
	for r0 := 0; r0 < n; r0 += chunk {
		rows := min(chunk, n-r0)
		if scratch, err = hdr.ReadRows(f, r0, rows, im.Pix[r0*n:(r0+rows)*n], scratch); err != nil {
			return nil, err
		}
	}
	return im, nil
}
