package par

import (
	"context"
	"fmt"

	"parimg/internal/errs"
	"parimg/internal/image"
)

// HistogramContext computes the k-bucket histogram of im with the engine's
// workers: per-worker sharded tallies of one strip each, merged pairwise in
// a tree of log(workers) parallel rounds. Pixels with grey level >= k are
// an error, as in the sequential baseline. When ctx is canceled or its
// deadline expires, the workers stop at their next checkpoint (inside the
// tally strips and between tree-merge rounds) and the call returns an
// error wrapping errs.ErrCanceled or errs.ErrDeadline. A nil ctx disables
// cancellation at no cost.
func (e *Engine) HistogramContext(ctx context.Context, im *image.Image, k int) ([]int64, error) {
	if k < 1 {
		return nil, errs.GreyRange("par.Histogram", k, "histogram needs at least 1 bucket, got %d", k)
	}
	h := make([]int64, k)
	if err := e.HistogramIntoContext(ctx, im, h); err != nil {
		return nil, err
	}
	return h, nil
}

// HistogramIntoContext tallies im into h (len(h) buckets), overwriting it.
// A malformed image, an empty bucket slice or a pixel with grey level >=
// len(h) returns a typed error from the errs taxonomy; see
// HistogramContext for the cancellation contract. On a run error the
// contents of h are undefined — callers must discard them.
func (e *Engine) HistogramIntoContext(ctx context.Context, im *image.Image, h []int64) error {
	k := len(h)
	if k < 1 {
		return errs.GreyRange("par.Histogram", k, "histogram needs at least 1 bucket")
	}
	if err := im.Check(); err != nil {
		return fmt.Errorf("par: %w", err)
	}
	if err := e.begin("par.Histogram", ctx); err != nil {
		return err
	}
	defer e.end()
	n := im.N
	W := e.stripCount(n)

	// Shard tally: each worker counts its strip into its own k buckets.
	e.phase("tally", func() {
		e.parallelDo(W, func(w int) {
			e.checkFault("tally", w, 1)
			shard := e.shards[w]
			if cap(shard) < k {
				shard = make([]int64, k)
				e.shards[w] = shard
			}
			shard = shard[:k]
			for i := range shard {
				shard[i] = 0
			}
			e.errs[w] = nil
			r0, r1 := stripBounds(w, W, n)
			for i, v := range im.Pix[r0*n : r1*n] {
				if i&16383 == 0 && e.cancelable && e.stop.Load() {
					return
				}
				if int(v) >= k {
					e.errs[w] = errs.GreyRange("par.Histogram", k,
						"grey level %d outside [0,%d)", v, k)
					return
				}
				shard[v]++
			}
		})
	})
	if err := e.runError(); err != nil {
		return err
	}
	for w := 0; w < W; w++ {
		if e.errs[w] != nil {
			return e.errs[w]
		}
	}

	// Tree merge: in round s, shard i absorbs shard i+s for every i that
	// is a multiple of 2s — log2(W) parallel rounds, the shared-memory
	// analogue of the paper's transpose+combine rearrangement. Each round
	// is a cancellation checkpoint: a round either completes on every
	// merger or the run stops on a round boundary, so partial sums never
	// mix into a returned histogram.
	e.phase("tree_merge", func() {
		round := 1
		for stride := 1; stride < W; stride *= 2 {
			if e.interrupted() {
				return
			}
			step := 2 * stride
			mergers := (W - stride + step - 1) / step
			r := round
			e.parallelDo(mergers, func(m int) {
				e.checkFault("tree_merge", m, r)
				lo := m * step
				hi := lo + stride
				dst, src := e.shards[lo][:k], e.shards[hi][:k]
				for i := range dst {
					dst[i] += src[i]
				}
			})
			round++
		}
	})
	if err := e.runError(); err != nil {
		return err
	}
	copy(h, e.shards[0][:k])
	return nil
}
