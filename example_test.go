package parimg_test

import (
	"context"
	"fmt"

	"parimg"
)

// Example labels the four-squares catalog image on a simulated 16-processor
// CM-5 and prints the component census.
func Example() {
	ctx := context.Background()
	im, err := parimg.GeneratePattern(parimg.FourSquares, 64)
	if err != nil {
		panic(err)
	}
	sim, err := parimg.NewSimulator(16, parimg.CM5)
	if err != nil {
		panic(err)
	}
	res, err := sim.Label(ctx, im, parimg.LabelOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("components:", res.Components)
	stats, err := parimg.Census(res.Labels, im)
	if err != nil {
		panic(err)
	}
	for _, s := range stats {
		fmt.Printf("label %d: %d pixels\n", s.Label, s.Size)
	}
	// Output:
	// components: 4
	// label 521: 256 pixels
	// label 553: 256 pixels
	// label 2569: 256 pixels
	// label 2601: 256 pixels
}

// ExampleSimulator_Histogram computes a histogram and checks the paper's
// correctness invariant, sum H[i] = n^2.
func ExampleSimulator_Histogram() {
	im, err := parimg.GeneratePattern(parimg.Cross, 64)
	if err != nil {
		panic(err)
	}
	sim, err := parimg.NewSimulator(4, parimg.SP2)
	if err != nil {
		panic(err)
	}
	res, err := sim.Histogram(context.Background(), im, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("background:", res.H[0])
	fmt.Println("foreground:", res.H[1])
	fmt.Println("total:", res.H[0]+res.H[1])
	// Output:
	// background: 3136
	// foreground: 960
	// total: 4096
}

// ExampleSimulator_Label shows connectivity semantics: diagonal contacts
// join components under 8-connectivity only.
func ExampleSimulator_Label() {
	ctx := context.Background()
	im, err := parimg.NewImage(8)
	if err != nil {
		panic(err)
	}
	im.Set(1, 1, 1)
	im.Set(2, 2, 1) // diagonal neighbor
	sim, err := parimg.NewSimulator(4, parimg.CM5)
	if err != nil {
		panic(err)
	}
	r8, _ := sim.Label(ctx, im, parimg.LabelOptions{Conn: parimg.Conn8})
	r4, _ := sim.Label(ctx, im, parimg.LabelOptions{Conn: parimg.Conn4})
	fmt.Println("8-connectivity:", r8.Components)
	fmt.Println("4-connectivity:", r4.Components)
	// Output:
	// 8-connectivity: 1
	// 4-connectivity: 2
}

// ExampleLabelOptions labels on the host-parallel backend with a metrics
// recorder installed and reads the run's phase and counter record. The run
// count (maximal foreground runs) is a property of the image alone, so it
// is stable across worker counts; phase wall times vary per host and are
// only checked for presence.
func ExampleLabelOptions() {
	im, err := parimg.GeneratePattern(parimg.FourSquares, 64)
	if err != nil {
		panic(err)
	}
	rec := parimg.NewMetricsRecorder()
	labels, err := parimg.Label(context.Background(), im, parimg.LabelOptions{
		Conn:    parimg.Conn8,
		Metrics: rec,
	})
	if err != nil {
		panic(err)
	}
	m := rec.Snapshot()
	fmt.Println("components:", labels.Components())
	fmt.Println("phases recorded:", len(m.Phases) > 0)
	fmt.Println("runs extracted:", m.Counters["runs"])
	// Output:
	// components: 4
	// phases recorded: true
	// runs extracted: 64
}

// ExampleOtsuThreshold segments a bimodal histogram.
func ExampleOtsuThreshold() {
	h := make([]int64, 16)
	h[2], h[3] = 500, 400 // dark mode
	h[12], h[13] = 300, 350
	fmt.Println("threshold:", parimg.OtsuThreshold(h))
	// Output:
	// threshold: 4
}
