// Command genimages renders the paper's test-image catalog to PGM files:
// the nine scalable binary patterns of Figure 1 and the synthetic DARPA
// benchmark scene of Figure 2. With -labels it also writes a visualization
// of each image's connected component labeling (component labels folded
// into grey levels), which makes the catalog's component structure easy to
// eyeball.
//
// With -stream it instead writes a single tall striped PGM bandwise —
// never holding the full image in memory — sized by -rows/-cols, for
// exercising the out-of-core labeling path (imgcc -stream) on images far
// taller than the resident engines' 65535-side ceiling:
//
//	genimages -n 512 -out ./images
//	genimages -n 256 -labels -out ./images
//	genimages -stream -rows 70000 -cols 64 -period 500 -out tall.pgm
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"parimg"
)

func main() {
	var (
		n      = flag.Int("n", 512, "image side for the catalog patterns")
		out    = flag.String("out", ".", "output directory (created if missing); with -stream, the output FILE")
		labels = flag.Bool("labels", false, "also write component-label visualizations")
		darpa  = flag.Bool("darpa", true, "include the synthetic DARPA scene")
		stream = flag.Bool("stream", false, "write one tall striped PGM bandwise to the -out file instead of the catalog")
		rows   = flag.Int("rows", 70000, "image height for -stream")
		cols   = flag.Int("cols", 64, "image width for -stream")
		period = flag.Int("period", 500, "with -stream, blank every period-th row, cutting the stripes into segments")
	)
	flag.Parse()

	if *stream {
		count, err := writeStriped(*out, *rows, *cols, *period)
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s: %dx%d, %d components\n", *out, *cols, *rows, count)
		return
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	for _, id := range parimg.AllPatterns() {
		im, err := parimg.GeneratePattern(id, *n)
		if err != nil {
			fail(err)
		}
		name := fmt.Sprintf("%s_%d.pgm", id, *n)
		if err := writePGM(filepath.Join(*out, name), im, 1); err != nil {
			fail(err)
		}
		fmt.Println("wrote", filepath.Join(*out, name))
		if *labels {
			if err := writeLabelViz(*out, fmt.Sprintf("%s_%d_labels.pgm", id, *n), im); err != nil {
				fail(err)
			}
		}
	}
	if *darpa {
		im := parimg.DARPAImage()
		path := filepath.Join(*out, "darpa_512.pgm")
		if err := writePGM(path, im, 255); err != nil {
			fail(err)
		}
		fmt.Println("wrote", path)
		if *labels {
			if err := writeLabelViz(*out, "darpa_512_labels.pgm", im); err != nil {
				fail(err)
			}
		}
	}
}

// writeLabelViz labels the image sequentially and folds the labels into
// visually distinct grey levels (background black).
func writeLabelViz(dir, name string, im *parimg.Image) error {
	mode := parimg.Binary
	if im.MaxGrey() > 1 {
		mode = parimg.Grey
	}
	lab, err := parimg.LabelSequential(im, parimg.Conn8, mode)
	if err != nil {
		return err
	}
	viz, err := parimg.NewImage(im.N)
	if err != nil {
		return err
	}
	for i, l := range lab.Lab {
		if l != 0 {
			// Spread labels over 64..255 so neighbors differ.
			viz.Pix[i] = 64 + (l*2654435761)%192
		}
	}
	path := filepath.Join(dir, name)
	if err := writePGM(path, viz, 255); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// writeStriped streams a rows×cols binary PGM to path one row at a time:
// foreground stripes down the even columns, with every period-th row left
// blank so the stripes break into vertical segments. The 1-column gaps
// mean 4- and 8-connectivity agree; the component count it returns is
// ceil(cols/2) stripes × the number of row segments. The row-at-a-time
// writer keeps memory at O(cols) no matter how tall the image is.
func writeStriped(path string, rows, cols, period int) (int, error) {
	if rows < 1 || cols < 1 || period < 2 {
		return 0, fmt.Errorf("bad stream geometry %dx%d period %d (want rows, cols >= 1, period >= 2)", cols, rows, period)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, "P5\n%d %d\n1\n", cols, rows)
	stripes := make([]byte, cols)
	for j := 0; j < cols; j += 2 {
		stripes[j] = 1
	}
	blank := make([]byte, cols)
	segments := 0
	inSegment := false
	for r := 0; r < rows; r++ {
		row := stripes
		if (r+1)%period == 0 {
			row = blank
			inSegment = false
		} else if !inSegment {
			segments++
			inSegment = true
		}
		if _, err := w.Write(row); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return (cols + 1) / 2 * segments, f.Close()
}

func writePGM(path string, im *parimg.Image, maxVal int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := parimg.WritePGM(f, im, maxVal); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "genimages: %v\n", err)
	os.Exit(1)
}
