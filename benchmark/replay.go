package main

import (
	"io"
	"time"

	"parimg/internal/image"
	"parimg/internal/par"
	"parimg/internal/seq"
	"parimg/internal/stream"
)

// replayStats accumulates the work and time of the replayed layer calls.
type replayStats struct {
	readBytes, readNS int64
	packPx, packNS    int64
	runs, runsNS      int64
	labelPx, labelNS  int64
	edges, seamNS     int64
}

// replayPGM runs the public functions of each layer of the band pipeline
// over one input PGM, band by band, with a benchmark-side span around every
// call: decode (PGMHeader.ReadRows), packing (Bitplane/Byteplane
// SetRowsPix), run extraction (AppendRuns/AppendGreyRuns), band labeling
// (BandLabeler) and the seam (AppendBoundaryEdges + ResolveBoundary into a
// 64-bit union-find). It measures each layer on the workload's own inputs,
// cut at the workload's own seams, whichever entry point the workload
// drives.
func replayPGM(r io.ReaderAt, bandRows int, conn image.Connectivity, mode seq.Mode,
	tr *tracer, st *replayStats) error {
	hdr, err := image.ReadPGMHeader(r)
	if err != nil {
		return err
	}
	w, h := hdr.Width, hdr.Height
	if bandRows <= 0 || bandRows > h {
		bandRows = h
	}
	pix := make([]uint32, bandRows*w)
	lab := make([]uint32, bandRows*w)
	var (
		scratch      []byte
		bp           image.Bitplane
		bytep        image.Byteplane
		bl           seq.BandLabeler
		runs         []int32
		vals         []uint32
		edges        []uint64
		prevPix      = make([]uint32, w)
		prevLab, top []uint64
		uf           = stream.NewUnionFind64()
		opStart      = time.Now()
		op           = tr.op("replay", opStart, 0)
		timed        = func(name string, ns *int64, fn func()) {
			t := time.Now()
			fn()
			d := time.Since(t)
			*ns += d.Nanoseconds()
			tr.child(op, name, t, d)
		}
	)
	for r0 := 0; r0 < h; r0 += bandRows {
		rows := min(bandRows, h-r0)
		p, l := pix[:rows*w], lab[:rows*w]
		timed("replay.read_rows", &st.readNS, func() { scratch, err = hdr.ReadRows(r, r0, rows, p, scratch) })
		if err != nil {
			return err
		}
		st.readBytes += int64(rows * w * hdr.SampleBytes())

		st.packPx += int64(rows * w)
		if mode == seq.Grey {
			var wide bool
			timed("replay.pack", &st.packNS, func() {
				bytep.ResetRect(rows, w)
				wide = bytep.SetRowsPix(p, 0, rows)
			})
			timed("replay.runs", &st.runsNS, func() {
				for i := 0; i < rows; i++ {
					if wide {
						runs, vals = seq.AppendGreyRunsPix(p[i*w:(i+1)*w], runs[:0], vals[:0])
					} else {
						runs, vals = seq.AppendGreyRuns(bytep.Row(i), runs[:0], vals[:0])
					}
					st.runs += int64(len(runs) / 2)
				}
			})
		} else {
			timed("replay.pack", &st.packNS, func() {
				bp.ResetRect(rows, w)
				bp.SetRowsPix(p, 0, rows)
			})
			timed("replay.runs", &st.runsNS, func() {
				for i := 0; i < rows; i++ {
					runs = seq.AppendRuns(bp.Row(i), runs[:0])
					st.runs += int64(len(runs) / 2)
				}
			})
		}

		st.labelPx += int64(rows * w)
		timed("replay.band_label", &st.labelNS, func() { bl.Label(p, rows, w, conn, mode, l) })

		cur := stream.Labels64{Base: uint64(r0) * uint64(w), Rows: rows, Cols: w, Lab: l}
		if r0 > 0 {
			timed("replay.seam", &st.seamNS, func() {
				top = cur.LiftRow(0, top)
				edges, _ = par.AppendBoundaryEdges(edges[:0], prevPix, p[:w], prevLab, top, conn, mode, nil)
				par.ResolveBoundary(edges, uf, nil)
			})
			st.edges += int64(len(edges) / 2)
		}
		copy(prevPix, p[(rows-1)*w:])
		prevLab = cur.LiftRow(rows-1, prevLab)
	}
	if op >= 0 {
		tr.spans[op].End = tr.spans[op].Start + time.Since(opStart).Nanoseconds()
	}
	return nil
}

// metrics returns the replay's per-layer metrics.
func (st *replayStats) metrics(out map[string]float64) {
	out["image.read_rows.gb_s"] = ratio(float64(st.readBytes), float64(st.readNS))
	out["image.pack.ns_per_px"] = ratio(float64(st.packNS), float64(st.packPx))
	out["seq.runs.ns_per_run"] = ratio(float64(st.runsNS), float64(max(st.runs, 1)))
	out["seq.band_label.ns_per_px"] = ratio(float64(st.labelNS), float64(st.labelPx))
	out["par.seam.ns_per_edge"] = ratio(float64(st.seamNS), float64(max(st.edges, 1)))
}
