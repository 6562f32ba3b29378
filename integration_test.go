package parimg

import (
	"bytes"
	"context"
	"testing"
)

// TestFullPipelineIntegration drives every module end to end: scene
// generation -> parallel equalization -> automatic threshold -> parallel
// binary labeling -> census -> shape classification, cross-checking each
// stage against its sequential counterpart.
func TestFullPipelineIntegration(t *testing.T) {
	ctx := context.Background()
	im := DARPAImage()
	// Compress the dynamic range so equalization has work to do.
	for i, v := range im.Pix {
		if v != 0 {
			im.Pix[i] = 100 + v/4
		}
	}

	sim, err := NewSimulator(32, CM5)
	if err != nil {
		t.Fatal(err)
	}

	// Parallel equalization == sequential equalization.
	eq, err := sim.Equalize(im, 256)
	if err != nil {
		t.Fatal(err)
	}
	hseq, err := HistogramSequential(im, 256)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Equalize(im, hseq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pix {
		if eq.Image.Pix[i] != want.Pix[i] {
			t.Fatalf("equalization differs at %d", i)
		}
	}

	// Threshold and label; parallel == sequential.
	tval := OtsuThreshold(eq.H)
	if tval <= 0 || tval >= 256 {
		t.Fatalf("threshold %d out of range", tval)
	}
	bin, err := Threshold(eq.Image, uint32(tval))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Label(ctx, bin, LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantLab := must(LabelSequential(bin, Conn8, Binary))
	for i := range wantLab.Lab {
		if res.Labels.Lab[i] != wantLab.Lab[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}

	// Census totals must cover exactly the thresholded foreground, and
	// the parallel census must equal the host-side one.
	stats, err := Census(res.Labels, eq.Image)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range stats {
		total += s.Size
	}
	if total != bin.CountForeground() {
		t.Fatalf("census covers %d pixels, foreground is %d", total, bin.CountForeground())
	}
	pc, err := sim.Census(eq.Image, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Stats) != len(stats) {
		t.Fatalf("parallel census %d entries, host %d", len(pc.Stats), len(stats))
	}
	for i := range stats {
		if pc.Stats[i] != stats[i] {
			t.Fatalf("parallel census differs at %d", i)
		}
	}

	// Classification covers every component.
	objs, err := ClassifyObjects(res.Labels, eq.Image)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != len(stats) {
		t.Fatalf("%d objects classified, %d components", len(objs), len(stats))
	}
}

// TestResultsIndependentOfMachineProfile: the machine profile changes only
// the simulated costs, never the computed results.
func TestResultsIndependentOfMachineProfile(t *testing.T) {
	ctx := context.Background()
	im := must(RandomGrey(64, 16, 99))
	var firstH []int64
	var firstLab []uint32
	for _, spec := range Machines() {
		sim, err := NewSimulator(16, spec)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sim.Histogram(ctx, im, 16)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Label(ctx, im, LabelOptions{Mode: Grey})
		if err != nil {
			t.Fatal(err)
		}
		if firstH == nil {
			firstH = h.H
			firstLab = res.Labels.Lab
			continue
		}
		for g := range firstH {
			if h.H[g] != firstH[g] {
				t.Fatalf("%s: histogram differs at %d", spec.Name, g)
			}
		}
		for i := range firstLab {
			if res.Labels.Lab[i] != firstLab[i] {
				t.Fatalf("%s: labels differ at %d", spec.Name, i)
			}
		}
	}
}

// TestMachineRankingStable: for a fixed compute-heavy workload, the
// machines order by their calibrated per-op speed (CS-2 fastest, CM-5
// slowest of the five), matching EXPERIMENTS.md.
func TestMachineRankingStable(t *testing.T) {
	ctx := context.Background()
	im := must(RandomGrey(256, 256, 3))
	times := map[string]float64{}
	for _, spec := range Machines() {
		sim, err := NewSimulator(16, spec)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sim.Histogram(ctx, im, 256)
		if err != nil {
			t.Fatal(err)
		}
		times[spec.Name] = h.Report.SimTime
	}
	if !(times["Meiko CS-2"] < times["IBM SP-2"] && times["IBM SP-2"] < times["IBM SP-1"]) {
		t.Errorf("per-op ranking violated: %v", times)
	}
	if !(times["IBM SP-1"] < times["TMC CM-5"]) {
		t.Errorf("SP-1 should beat CM-5: %v", times)
	}
}

// TestPGMRoundTripThroughPublicAPI ties the image I/O into the pipeline.
func TestPGMRoundTripThroughPublicAPI(t *testing.T) {
	ctx := context.Background()
	im := must(GeneratePattern(ConcentricCircles, 64))
	var buf bytes.Buffer
	if err := WritePGM(&buf, im, 1); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(4, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Label(ctx, im, LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Label(ctx, back, LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels.Lab {
		if a.Labels.Lab[i] != b.Labels.Lab[i] {
			t.Fatal("labels differ after PGM round trip")
		}
	}
}

// TestAllThreeParallelAlgorithmsAgreePublic exercises the public baseline
// entry points on one input.
func TestAllThreeParallelAlgorithmsAgreePublic(t *testing.T) {
	ctx := context.Background()
	im := must(RandomBinary(64, 0.55, 12345))
	sim, err := NewSimulator(16, SP2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Label(ctx, im, LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.LabelByPropagation(im, LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := sim.LabelByPointerJumping(im, LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels.Lab {
		if a.Labels.Lab[i] != b.Labels.Lab[i] || a.Labels.Lab[i] != c.Labels.Lab[i] {
			t.Fatalf("algorithms disagree at %d", i)
		}
	}
	if a.Components != b.Components || a.Components != c.Components {
		t.Error("component counts disagree")
	}
}
