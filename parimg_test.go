package parimg

import (
	"context"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	ctx := context.Background()
	im := must(GeneratePattern(DualSpiral, 128))
	sim, err := NewSimulator(16, CM5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Histogram(ctx, im, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.H[0]+h.H[1] != int64(128*128) {
		t.Errorf("histogram sums to %d", h.H[0]+h.H[1])
	}
	res, err := sim.Label(ctx, im, LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := must(LabelSequential(im, Conn8, Binary))
	for i := range want.Lab {
		if res.Labels.Lab[i] != want.Lab[i] {
			t.Fatalf("labels differ from sequential at %d", i)
		}
	}
	if res.Report.SimTime <= 0 {
		t.Error("no simulated time reported")
	}
	if res.MergePhases != 4 {
		t.Errorf("MergePhases = %d, want 4 for p=16", res.MergePhases)
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	for _, p := range []int{0, -1, 3, 12} {
		if _, err := NewSimulator(p, CM5); err == nil {
			t.Errorf("NewSimulator(%d): want error", p)
		}
	}
}

func TestMachineByName(t *testing.T) {
	for _, name := range []string{"cm5", "CM5", " sp2 ", "paragon", "ideal"} {
		if _, err := MachineByName(name); err != nil {
			t.Errorf("MachineByName(%q): %v", name, err)
		}
	}
	if _, err := MachineByName("cray"); err == nil {
		t.Error("unknown machine: want error")
	}
	if len(Machines()) != 5 {
		t.Errorf("Machines() has %d entries, want 5", len(Machines()))
	}
}

func TestLabelOptionsVariants(t *testing.T) {
	ctx := context.Background()
	im := must(RandomBinary(64, 0.55, 21))
	sim, err := NewSimulator(16, SP2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Label(ctx, im, LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []LabelOptions{
		{DirectDistribution: true},
		{NoShadowManager: true},
		{FullRelabel: true},
		{Conn: Conn4},
		{Mode: Grey},
	} {
		res, err := sim.Label(ctx, im, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if opt.Conn == 0 && opt.Mode == Binary {
			// Same semantics, different execution strategy: the
			// labeling must be identical.
			for i := range base.Labels.Lab {
				if res.Labels.Lab[i] != base.Labels.Lab[i] {
					t.Fatalf("%+v: labeling differs at %d", opt, i)
				}
			}
		}
	}
}

func TestDARPAImageUsable(t *testing.T) {
	ctx := context.Background()
	im := DARPAImage()
	sim, err := NewSimulator(16, CM5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Label(ctx, im, LabelOptions{Mode: Grey})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components < 100 {
		t.Errorf("DARPA scene has only %d components; expected a rich census", res.Components)
	}
	if _, err := sim.Histogram(ctx, im, 256); err != nil {
		t.Fatal(err)
	}
}

func TestAllPatternsExported(t *testing.T) {
	if len(AllPatterns()) != 9 {
		t.Errorf("AllPatterns: %d, want 9", len(AllPatterns()))
	}
	for _, id := range AllPatterns() {
		if im, err := GeneratePattern(id, 32); err != nil {
			t.Errorf("pattern %v: %v", id, err)
		} else if im.N != 32 {
			t.Errorf("pattern %v: wrong side", id)
		}
	}
}
