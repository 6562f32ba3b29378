package recognize

import (
	"testing"

	"parimg/internal/image"
	"parimg/internal/seq"
)

func classifyImage(t *testing.T, im *image.Image) []Object {
	t.Helper()
	l := seq.LabelBFS(im, image.Conn8, seq.Binary)
	objs, err := Classify(l, im)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

func TestClassifyDisc(t *testing.T) {
	im := image.GenFilledDisc(64)
	objs := classifyImage(t, im)
	if len(objs) != 1 {
		t.Fatalf("disc image: %d objects", len(objs))
	}
	if objs[0].Class != Disc {
		t.Errorf("filled disc classified as %v (%s)", objs[0].Class, objs[0])
	}
}

func TestClassifyFourSquares(t *testing.T) {
	im := image.GenFourSquares(64)
	objs := classifyImage(t, im)
	if len(objs) != 4 {
		t.Fatalf("four squares: %d objects", len(objs))
	}
	for _, o := range objs {
		if o.Class != Rectangle {
			t.Errorf("square classified as %v (%s)", o.Class, o)
		}
	}
}

func TestClassifyBars(t *testing.T) {
	im := image.GenHorizontalBars(64)
	objs := classifyImage(t, im)
	if len(objs) == 0 {
		t.Fatal("no bars found")
	}
	for _, o := range objs {
		if o.Class != Bar {
			t.Errorf("stripe classified as %v (%s)", o.Class, o)
		}
	}
}

func TestClassifyRings(t *testing.T) {
	im := image.GenConcentricCircles(128)
	objs := classifyImage(t, im)
	rings := 0
	for _, o := range objs {
		switch o.Class {
		case Ring:
			rings++
		case Disc:
			// The innermost band is a filled disc; fine.
		default:
			t.Errorf("concentric band classified as %v (%s)", o.Class, o)
		}
	}
	if rings < 2 {
		t.Errorf("found only %d rings", rings)
	}
}

func TestClassifySingleDot(t *testing.T) {
	im := image.New(16)
	im.Set(8, 8, 1)
	objs := classifyImage(t, im)
	if len(objs) != 1 || objs[0].Class != Speck {
		t.Errorf("dot: %v", objs)
	}
}

func TestClassifyGreyScene(t *testing.T) {
	// The synthetic mobile scene under grey components: the classifier
	// must find bars (links/strings), rectangles and discs.
	im := image.DARPASynthetic()
	l := seq.LabelBFS(im, image.Conn8, seq.Grey)
	objs, err := Classify(l, im)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summary(objs)
	if sum[Bar] == 0 {
		t.Error("no bars found in the mobile scene")
	}
	if sum[Rectangle] == 0 {
		t.Error("no rectangles found in the mobile scene")
	}
	if sum[Disc] == 0 {
		t.Error("no discs found in the mobile scene")
	}
	total := 0
	for _, c := range sum {
		total += c
	}
	if total != len(objs) {
		t.Errorf("summary covers %d of %d objects", total, len(objs))
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		Blob: "blob", Bar: "bar", Rectangle: "rectangle",
		Disc: "disc", Ring: "ring", Speck: "speck",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestObjectString(t *testing.T) {
	o := Object{Class: Disc, Fill: 0.78, Aspect: 1.0}
	o.Label = 5
	o.Size = 100
	if s := o.String(); s == "" {
		t.Error("empty object string")
	}
}
