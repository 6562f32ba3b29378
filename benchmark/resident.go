package main

import (
	"context"
	"time"

	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/par"
)

// resident drives par.Engine.LabelIntoContext over the three in-memory
// inputs round-robin from one caller in a closed loop.
func (c *child) resident() error {
	type resInput struct {
		in *input
		im *image.Image
	}
	ins := make([]resInput, len(c.m.Inputs))
	for i := range c.m.Inputs {
		im, err := readImage(c.m.Inputs[i].File)
		if err != nil {
			return err
		}
		ins[i] = resInput{&c.m.Inputs[i], im}
	}
	n := ins[0].im.N
	lab := image.NewLabels(n)
	ctx := context.Background()
	w := c.m.Workers

	label := func(e *par.Engine, x *resInput, rec *obs.Recorder) time.Duration {
		e.SetObserver(rec)
		start := time.Now()
		comps, err := e.LabelIntoContext(ctx, x.im, x.in.conn(), x.in.mode(), lab)
		d := time.Since(start)
		if err != nil {
			c.rep.fail(x.in.Key, err)
			return d
		}
		c.rep.ok(x.in.Key, fpLabels(lab.Lab, comps))
		if rec != nil {
			c.traceOp("resident.label", start, d, rec)
		}
		return d
	}
	var engines []*par.Engine
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	// engine returns a fresh engine of the given workers after one untimed
	// warm-up call per input.
	engine := func(workers int) *par.Engine {
		e := par.NewEngine(workers)
		engines = append(engines, e)
		for i := range ins {
			label(e, &ins[i], nil)
		}
		return e
	}
	// legOn labels the inputs round-robin on e under GOMAXPROCS procs,
	// recording into rec when traced.
	legOn := func(e *par.Engine, procs int, rec *obs.Recorder) *leg {
		return c.newLeg(procs, len(ins), func(k int) opRec {
			x := &ins[k%len(ins)]
			return opRec{x.in.Key, x.in.Pixels, label(e, x, rec).Seconds()}
		})
	}
	setup := func() time.Duration {
		start := time.Now()
		e := par.NewEngine(w)
		label(e, &ins[0], nil)
		d := time.Since(start)
		e.Close()
		return d
	}

	if !c.m.Trace {
		main, one := legOn(engine(w), w, nil), legOn(engine(1), 1, nil)
		c.e2e(c.rounds(setup, main.window, one.window), main, one)
		return nil
	}
	e := engine(w)
	u, t, one := legOn(e, w, nil), legOn(e, w, obs.NewRecorder()), legOn(engine(1), 1, nil)
	c.rounds(setup, u.window, t.window, one.window)
	var st replayStats
	for _, x := range ins {
		if err := c.replayFile(x.in.File, (n+w-1)/w, x.in, &st); err != nil {
			return err
		}
	}
	c.layers("resident.label", u, t, one, &st)
	return nil
}
