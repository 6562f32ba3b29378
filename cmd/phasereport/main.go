// Command phasereport renders the paper-style per-phase breakdown tables:
// for every catalog pattern plus the DARPA scene it runs one labeling under
// the BDM simulator (modeled seconds per phase, comm volume per primitive)
// and one under the host-parallel engine (wall-clock nanoseconds per
// phase), then prints both as markdown percentage tables — the
// reproduction's analogue of the paper's Section 6 phase discussion.
//
// By default the tables go to stdout. With -update FILE the generated
// section replaces the text between the markers
//
//	<!-- phasereport:begin -->
//	<!-- phasereport:end -->
//
// in FILE (normally EXPERIMENTS.md), so `make experiments` can keep the
// committed tables current.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parimg"
	"parimg/internal/cli"
)

func main() {
	var (
		n           = cli.NFlag(flag.CommandLine)
		p           = cli.PFlag(flag.CommandLine)
		machineName = cli.MachineFlag(flag.CommandLine)
		workers     = flag.Int("workers", 4, cli.WorkersUsage)
		update      = flag.String("update", "", "rewrite the phasereport section of this markdown file instead of printing")
	)
	flag.Parse()

	spec, err := parimg.MachineByName(*machineName)
	if err != nil {
		fatal(err)
	}
	W := *workers
	if W <= 0 {
		W = cli.Workers(W)
	}

	var buf bytes.Buffer
	render(&buf, spec, *p, *n, W)

	if *update == "" {
		os.Stdout.Write(buf.Bytes())
		return
	}
	if err := updateSection(*update, buf.Bytes()); err != nil {
		fatal(err)
	}
	fmt.Printf("updated %s\n", *update)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "phasereport: %v\n", err)
	os.Exit(1)
}

// input is one report row: a catalog pattern (binary) or the DARPA scene
// (grey-scale components).
type input struct {
	name string
	im   *parimg.Image
	mode parimg.Mode
}

func inputs(n int) []input {
	var ins []input
	for _, id := range parimg.AllPatterns() {
		im, err := parimg.GeneratePattern(id, n)
		if err != nil {
			fatal(err)
		}
		ins = append(ins, input{id.String(), im, parimg.Binary})
	}
	ins = append(ins, input{"darpa", parimg.DARPAImage(), parimg.Grey})
	return ins
}

func render(buf *bytes.Buffer, spec parimg.MachineSpec, p, n, W int) {
	ins := inputs(n)

	fmt.Fprintf(buf, "Generated by `go run ./cmd/phasereport -update EXPERIMENTS.md` "+
		"(see `make experiments`). Each cell is the phase's share of that run's\n"+
		"end-to-end time; \"DARPA\" is the synthetic grey-scale scene, every other\n"+
		"row a binary Figure 1 catalog pattern at %d².\n\n", n)

	// Modeled table: one simulated labeling per image, phases from the
	// rank-0 barrier marks of internal/cc, comm volume from the Sync-time
	// attribution of internal/bdm.
	fmt.Fprintf(buf, "**Modeled** (BDM simulator, %s, p=%d): percent of simulated time,\n"+
		"plus the modeled communication volume the run charged.\n\n", spec.Name, p)
	fmt.Fprintf(buf, "| image | init | merge | final update | sim ms | τ count | words moved |\n")
	fmt.Fprintf(buf, "|---|---:|---:|---:|---:|---:|---:|\n")
	for _, in := range ins {
		m := simMetrics(spec, p, in)
		total := m.SimTimeS
		var taus, words int64
		for _, c := range m.Comm {
			taus += c.Taus
			words += c.Words
		}
		fmt.Fprintf(buf, "| %s | %s | %s | %s | %.1f | %d | %d |\n",
			in.name,
			pct(m.ModelPhaseS("init"), total),
			pct(m.ModelPhaseS("merge"), total),
			pct(m.ModelPhaseS("final_update"), total),
			total*1e3, taus, words)
	}

	// Measured table: one instrumented host-parallel labeling per image.
	fmt.Fprintf(buf, "\n**Measured** (host-parallel engine, workers=%d — binary rows extract\n"+
		"foreground runs from the bit plane, the grey DARPA row extracts\n"+
		"equal-grey-level runs from the byte plane): percent of wall-clock\n"+
		"time, and the share of it the recorded phases cover. Edges is the\n"+
		"deduplicated boundary union-edge count the border merge extracted\n"+
		"from the strips' facing pixel rows and united into the seam forest.\n\n", W)
	fmt.Fprintf(buf, "| image | strip label | border merge | relabel | edges | wall ms | covered |\n")
	fmt.Fprintf(buf, "|---|---:|---:|---:|---:|---:|---:|\n")
	for _, in := range ins {
		m := parMetrics(in, W)
		total := float64(m.TotalNS)
		fmt.Fprintf(buf, "| %s | %s | %s | %s | %d | %.1f | %s |\n",
			in.name,
			pct(float64(m.WallPhaseNS("strip_label")), total),
			pct(float64(m.WallPhaseNS("border_merge")), total),
			pct(float64(m.WallPhaseNS("relabel")), total),
			m.Counters["border_edges"],
			total/1e6,
			pct(float64(m.WallPhaseNS()), total))
	}
	fmt.Fprintf(buf, "\nReading: the modeled split is dominated by init (the local tile\n"+
		"labeling) and the final update, with the log p merge rounds in between —\n"+
		"the Section 5 shape. The measured split shows the same structure on real\n"+
		"goroutines: the border merge is the cheap O(side) seam pass between\n"+
		"strip labeling (packing, run extraction and the run unites, which\n"+
		"paint only a strip's first and last rows) and the relabel, which is\n"+
		"the one paint: one forest lookup per run of a strip's first and last\n"+
		"rows, then one span write per run. Like the modeled final update, it\n"+
		"is where interior pixels get their final labels.\n"+
		"Wall times are container-dependent; the shares are the reproducible part.\n")
}

// simMetrics labels one image under the simulator and returns its metrics.
func simMetrics(spec parimg.MachineSpec, p int, in input) *parimg.Metrics {
	sim, err := parimg.NewSimulator(p, spec)
	if err != nil {
		fatal(err)
	}
	rec := parimg.NewMetricsRecorder()
	sim.SetObserver(rec)
	res, err := sim.Label(context.Background(), in.im, parimg.LabelOptions{Conn: parimg.Conn8, Mode: in.mode})
	if err != nil {
		fatal(err)
	}
	m := rec.Snapshot()
	m.SimTimeS = res.Report.SimTime
	return m
}

// parMetrics labels one image on the host-parallel engine with a recorder
// installed and returns the metrics.
func parMetrics(in input, W int) *parimg.Metrics {
	eng := parimg.NewParallelEngine(W)
	rec := parimg.NewMetricsRecorder()
	eng.SetObserver(rec)
	labels, err := parimg.NewLabels(in.im.N)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	if _, err := eng.LabelIntoContext(context.Background(), in.im, parimg.Conn8, in.mode, labels); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	m := rec.Snapshot()
	m.TotalNS = elapsed.Nanoseconds()
	return m
}

// pct formats part/total as a percentage, "—" when the phase is absent.
func pct(part, total float64) string {
	if part == 0 {
		return "—"
	}
	if total <= 0 {
		return "?"
	}
	return fmt.Sprintf("%.1f%%", 100*part/total)
}

const (
	beginMarker = "<!-- phasereport:begin -->"
	endMarker   = "<!-- phasereport:end -->"
)

// updateSection replaces the text between the phasereport markers of the
// named file with the generated section, keeping the markers.
func updateSection(path string, section []byte) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	text := string(data)
	b := strings.Index(text, beginMarker)
	e := strings.Index(text, endMarker)
	if b < 0 || e < 0 || e < b {
		return fmt.Errorf("%s: markers %q ... %q not found", path, beginMarker, endMarker)
	}
	out := text[:b+len(beginMarker)] + "\n" + string(section) + text[e:]
	return os.WriteFile(path, []byte(out), 0o644)
}
