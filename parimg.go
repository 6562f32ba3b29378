// Package parimg is a reproduction of Bader and JaJa, "Parallel Algorithms
// for Image Histogramming and Connected Components with an Experimental
// Study" (PPoPP 1995): portable SPMD algorithms for image histogramming and
// connected component labeling on a single-address-space distributed-memory
// model, together with the Block Distributed Memory (BDM) machine simulator
// they are measured on.
//
// The public API wraps the internal packages:
//
//   - images and test patterns (the paper's Figure 1 catalog, random
//     images, and a synthetic DARPA benchmark scene),
//   - machine profiles for the five platforms of the paper's study,
//   - a Simulator that runs the parallel algorithms on p simulated
//     processors and reports both results and modeled execution costs, and
//   - sequential baselines.
//
// Every operation has one entry point, and it returns an error. Entry
// points that can run long take a context.Context first; a nil context
// behaves as context.Background(). A minimal session:
//
//	ctx := context.Background()
//	im, _ := parimg.GeneratePattern(parimg.DualSpiral, 512)
//	sim, _ := parimg.NewSimulator(32, parimg.CM5)
//	res, _ := sim.Label(ctx, im, parimg.LabelOptions{})
//	fmt.Println(res.Components, res.Report.SimTime)
package parimg

import (
	"context"
	"io"
	"time"

	"parimg/internal/bdm"
	"parimg/internal/cc"
	"parimg/internal/errs"
	"parimg/internal/hist"
	"parimg/internal/image"
	"parimg/internal/machine"
	"parimg/internal/obs"
	"parimg/internal/par"
	"parimg/internal/recognize"
	"parimg/internal/seq"
)

// The typed error taxonomy of the public boundary. Every validation failure
// returned by this package matches ErrBadInput under errors.Is; the more
// specific sentinels classify the failure, and the concrete *InputError
// carries the offending n/p/k. Arbitrary caller input never panics through
// an entry point.
var (
	// ErrBadInput is the root of the taxonomy: every input-validation
	// failure wraps it.
	ErrBadInput = errs.ErrBadInput
	// ErrGeometry marks invalid image/grid geometry: non-positive or
	// mismatched sides, buffers of the wrong length, processor counts that
	// cannot tile the image.
	ErrGeometry = errs.ErrGeometry
	// ErrGreyRange marks grey levels or bucket counts outside the valid
	// range (a pixel >= k, k not a power of two where required, k < 1).
	ErrGreyRange = errs.ErrGreyRange
	// ErrLabelOverflow marks images whose side exceeds MaxSide: seed labels
	// are the global row-major pixel index + 1 in uint32, so any larger
	// image would wrap the 32-bit label space and collide components.
	ErrLabelOverflow = errs.ErrLabelOverflow
	// ErrCheckpointCorrupt marks a streaming-resume checkpoint file that
	// fails structural validation: wrong magic or version, truncation, or a
	// checksum mismatch. The record is never partially trusted.
	ErrCheckpointCorrupt = errs.ErrCheckpointCorrupt
	// ErrCheckpointMismatch marks a structurally valid checkpoint written
	// by a different run: the input's header bytes, its geometry, or the
	// labeling options have drifted, so resuming would compute wrong labels.
	ErrCheckpointMismatch = errs.ErrCheckpointMismatch
)

// InputError is the concrete error type behind the sentinels: it records
// the failing operation, the matched sentinel, and the offending image
// side, processor count, and grey-level count where relevant. Retrieve it
// with errors.As.
type InputError = errs.InputError

// The runtime-failure side of the taxonomy: errors from a run that started
// and did not finish, as opposed to inputs that were rejected up front.
// Every such error is a *RunError wrapping exactly one of these sentinels;
// ErrCanceled and ErrDeadline additionally match context.Canceled and
// context.DeadlineExceeded under errors.Is.
var (
	// ErrAborted marks a run torn down by an internal failure: a processor
	// or worker panic (including injected faults in the chaos suite).
	ErrAborted = errs.ErrAborted
	// ErrCanceled marks a run stopped because its context was canceled.
	ErrCanceled = errs.ErrCanceled
	// ErrDeadline marks a run stopped by a context deadline or by the
	// simulator's barrier-stall watchdog (SetWatchdog).
	ErrDeadline = errs.ErrDeadline
	// ErrClosed marks a call on a ParallelEngine after Close (including an
	// in-flight cancelable run that Close unwound at its next checkpoint).
	ErrClosed = errs.ErrClosed
)

// RunError is the concrete error type behind the runtime sentinels: it
// records the failing operation, the matched sentinel, how long the run had
// been going, and the underlying cause. Retrieve it with errors.As.
type RunError = errs.RunError

// MaxSide is the largest supported image side. Labels are 32-bit and seed
// labels are the global row-major index + 1, so MaxSide^2 must stay below
// 2^32: 65535^2 = 4294836225 < 2^32, while 65536^2 wraps to exactly 0.
const MaxSide = image.MaxSide

// Re-exported core types. The aliases keep one set of concrete types across
// the public API and the internal algorithm packages.
type (
	// Image is an n x n grey-level image; 0 is background.
	Image = image.Image
	// Labels is a per-pixel component labeling.
	Labels = image.Labels
	// Connectivity selects 4- or 8-connectivity.
	Connectivity = image.Connectivity
	// Mode selects binary or grey-scale component semantics.
	Mode = seq.Mode
	// PatternID identifies one of the nine catalog test images.
	PatternID = image.PatternID
	// MachineSpec is a BDM cost profile of a target machine.
	MachineSpec = bdm.CostParams
	// Report is the simulated execution report of a parallel run.
	Report = bdm.Report
	// Metrics is the observability document of one run: per-phase times,
	// operation counters and modeled communication volume, serialized as
	// the MetricsSchema JSON format by the commands' -metrics flag.
	Metrics = obs.Metrics
	// MetricsRecorder collects phase times and counters during a run; see
	// NewMetricsRecorder. The nil recorder is valid and records nothing.
	MetricsRecorder = obs.Recorder
	// MetricsPhase is one recorded span of a Metrics document: wall-clock
	// nanoseconds for host-parallel runs, modeled seconds for simulated ones.
	MetricsPhase = obs.Phase
	// CommStat is the modeled communication volume (latencies and words
	// moved) one simulated run attributed to one primitive.
	CommStat = obs.CommStat
)

// MetricsSchema is the identifier carried by every Metrics document.
const MetricsSchema = obs.Schema

// NewMetricsRecorder returns an empty, enabled metrics recorder. Install it
// with Simulator.SetObserver or ParallelEngine.SetObserver (or pass it to
// Label in LabelOptions.Metrics), run, then call Snapshot for the Metrics
// document and Reset to start the next run's epoch.
func NewMetricsRecorder() *MetricsRecorder { return obs.NewRecorder() }

// Connectivity and mode constants.
const (
	Conn4 = image.Conn4
	Conn8 = image.Conn8

	Binary = seq.Binary
	Grey   = seq.Grey
)

// The nine scalable binary test patterns of the paper's Figure 1.
const (
	HorizontalBars      = image.HorizontalBars
	VerticalBars        = image.VerticalBars
	ForwardDiagonalBars = image.ForwardDiagonalBars
	BackDiagonalBars    = image.BackDiagonalBars
	Cross               = image.Cross
	FilledDisc          = image.FilledDisc
	ConcentricCircles   = image.ConcentricCircles
	FourSquares         = image.FourSquares
	DualSpiral          = image.DualSpiral
)

// Machine profiles of the paper's experimental platforms.
var (
	CM5     = machine.CM5
	SP1     = machine.SP1
	SP2     = machine.SP2
	CS2     = machine.CS2
	Paragon = machine.Paragon
	Ideal   = machine.Ideal
)

// Machines returns the five machines of the paper's study.
func Machines() []MachineSpec { return machine.All() }

// MachineByName resolves a short machine name (cm5, sp1, sp2, cs2, paragon,
// ideal), case-insensitively.
func MachineByName(name string) (MachineSpec, error) { return machine.ByName(name) }

// NewImage returns an all-background n x n image. A side outside
// (0, MaxSide] returns ErrGeometry or ErrLabelOverflow.
func NewImage(n int) (*Image, error) { return image.NewChecked(n) }

// GeneratePattern renders catalog pattern id at side n. An id outside the
// Figure 1 catalog or a side outside (0, MaxSide] returns an error.
func GeneratePattern(id PatternID, n int) (*Image, error) {
	return image.GenerateChecked(id, n)
}

// AllPatterns lists the nine catalog patterns in Figure 1 order.
func AllPatterns() []PatternID { return image.AllPatterns() }

// RandomBinary returns a deterministic random binary image with the given
// foreground density. A side outside (0, MaxSide] or a density outside
// [0, 1] (including NaN) returns an error.
func RandomBinary(n int, density float64, seed uint64) (*Image, error) {
	return image.RandomBinaryChecked(n, density, seed)
}

// RandomGrey returns a deterministic random image with k grey levels. A
// side outside (0, MaxSide] or k < 2 returns an error.
func RandomGrey(n, k int, seed uint64) (*Image, error) {
	return image.RandomGreyChecked(n, k, seed)
}

// NewLabels returns a zeroed labeling for an n x n image, for use with
// ParallelEngine.LabelIntoContext. A side outside (0, MaxSide] returns
// ErrGeometry or ErrLabelOverflow.
func NewLabels(n int) (*Labels, error) { return image.NewLabelsChecked(n) }

// DARPAImage returns the synthetic 512 x 512, 256 grey-level stand-in for
// the DARPA Image Understanding Benchmark image (Figure 2); see DESIGN.md
// for the substitution rationale.
func DARPAImage() *Image { return image.DARPASynthetic() }

// Simulator is a p-processor simulated distributed-memory machine running
// the paper's parallel algorithms under the BDM cost model. A Simulator
// reuses its machine's goroutine pool and a scratch arena across calls, so
// repeated Label/Histogram runs do near-zero large allocations; it is not
// safe for concurrent use.
type Simulator struct {
	m    *bdm.Machine
	p    int
	cc   *cc.Engine
	hist *hist.Engine
}

// NewSimulator creates a simulator with p processors (a power of two) and
// the given machine profile. A p that is not a positive power of two
// returns ErrGeometry.
func NewSimulator(p int, spec MachineSpec) (*Simulator, error) {
	if p <= 0 || p&(p-1) != 0 {
		return nil, errs.Geometry("parimg.NewSimulator", 0, p,
			"p must be a positive power of two, got %d", p)
	}
	m, err := bdm.NewMachine(p, spec)
	if err != nil {
		return nil, err
	}
	return &Simulator{m: m, p: p, cc: cc.NewEngine(m), hist: hist.NewEngine(m)}, nil
}

// P returns the number of simulated processors.
func (s *Simulator) P() int { return s.p }

// Close shuts down the simulator's pooled processor goroutines. It must not
// be called while a run is in flight. Abandoned simulators are also
// finalized, so Close is an optional courtesy for tests and long-lived
// programs that create simulators dynamically.
func (s *Simulator) Close() { s.m.Close() }

// SetObserver installs (or, with nil, removes) the metrics recorder that
// receives modeled phase times and per-primitive communication volumes from
// subsequent runs on this simulator. Must not be called during a run.
func (s *Simulator) SetObserver(r *MetricsRecorder) { s.m.SetObserver(r) }

// Observer returns the installed metrics recorder (nil when disabled).
func (s *Simulator) Observer() *MetricsRecorder { return s.m.Observer() }

// SetWatchdog arms (or, with d <= 0, disarms) the barrier-stall watchdog: if
// any simulated processor waits at a barrier longer than d of wall-clock
// time while others never arrive, the run aborts with an error wrapping
// ErrDeadline that names the ranks that arrived and the ranks that are
// missing, instead of deadlocking. The watchdog is off by default and costs
// nothing while every processor keeps making progress. Must not be called
// during a run.
func (s *Simulator) SetWatchdog(d time.Duration) { s.m.SetStallDeadline(d) }

// HistogramResult is the outcome of a parallel histogramming run.
type HistogramResult struct {
	// H[i] is the number of pixels with grey level i.
	H []int64
	// Report carries the modeled execution costs.
	Report Report
}

// Histogram computes the k-bar histogram of im on the simulated machine
// (Section 4 of the paper). k must be a power of two and the image must
// tile evenly across the processors. On cancellation or deadline expiry of
// ctx the simulated processors unwind at their next checkpoint and the
// call returns an error wrapping ErrCanceled or ErrDeadline.
func (s *Simulator) Histogram(ctx context.Context, im *Image, k int) (*HistogramResult, error) {
	res, err := s.hist.RunContext(orBackground(ctx), im, k)
	if err != nil {
		return nil, err
	}
	return &HistogramResult{H: res.H, Report: res.Report}, nil
}

// EqualizeResult is the outcome of the parallel equalization pipeline.
type EqualizeResult struct {
	// Image is the equalized image (background preserved).
	Image *Image
	// H is the histogram of the input image.
	H []int64
	// Report carries the modeled execution costs of the full pipeline.
	Report Report
}

// Equalize runs the paper's Section 4 motivating application end to end on
// the simulated machine: parallel histogram, equalization map built on
// processor 0, map broadcast with the two-transposition Algorithm 2, and
// local remapping of every tile.
func (s *Simulator) Equalize(im *Image, k int) (*EqualizeResult, error) {
	res, err := hist.Equalize(s.m, im, k)
	if err != nil {
		return nil, err
	}
	return &EqualizeResult{Image: res.Image, H: res.H, Report: res.Report}, nil
}

// OtsuThreshold returns the grey level maximizing between-class variance of
// a histogram's foreground levels — the classic automatic threshold for
// segmenting a grey image before binary component labeling.
func OtsuThreshold(h []int64) int { return hist.OtsuThreshold(h) }

// Threshold returns the binary image with foreground where im's grey level
// is at least t. A malformed image returns an error.
func Threshold(im *Image, t uint32) (*Image, error) {
	if err := im.Check(); err != nil {
		return nil, err
	}
	out := image.New(im.N)
	for i, v := range im.Pix {
		if v >= t && v > 0 {
			out.Pix[i] = 1
		}
	}
	return out, nil
}

// StageBreakdown is the per-stage simulated time split of a labeling run.
type StageBreakdown = cc.Breakdown

// LabelOptions configure connected component labeling. The zero value is
// the paper's default: 8-connectivity, binary mode.
type LabelOptions struct {
	// Conn is the adjacency; default 8-connectivity.
	Conn Connectivity
	// Mode is Binary or Grey; default Binary.
	Mode Mode
	// DirectDistribution uses the unimproved change-array distribution
	// (every client pulls the full array from its group manager) instead
	// of the transpose-based scheme of Section 5.4.
	DirectDistribution bool
	// NoShadowManager makes group managers prefetch and sort both border
	// sides themselves.
	NoShadowManager bool
	// FullRelabel relabels whole tiles after every merge instead of the
	// paper's limited border-and-hooks updating.
	FullRelabel bool
	// Metrics, when non-nil, receives the run's phase times and operation
	// counters. Honored by Label; Simulator.Label instead uses the
	// recorder installed with Simulator.SetObserver.
	Metrics *MetricsRecorder
}

// CCResult is the outcome of a parallel connected components run.
type CCResult struct {
	// Labels holds the final labeling; labels are canonical (global
	// row-major index of the component's first pixel, plus one).
	Labels *Labels
	// Components is the number of components found.
	Components int
	// Report carries the modeled execution costs.
	Report Report
	// MergePhases is log p, the number of merge iterations performed.
	MergePhases int
	// Stages is the per-stage simulated time breakdown (initialization,
	// each merge iteration, final update). Only Label fills it; the
	// baseline algorithms leave it zero.
	Stages StageBreakdown
}

// Label computes the connected components of im on the simulated machine
// (Sections 5 and 6 of the paper). On cancellation or deadline expiry of
// ctx the simulated processors unwind at their next Sync/Barrier
// checkpoint — merge iterations are bracketed by barriers, so cancellation
// lands on a merge-round boundary — and the call returns an error wrapping
// ErrCanceled or ErrDeadline.
func (s *Simulator) Label(ctx context.Context, im *Image, opt LabelOptions) (*CCResult, error) {
	o := cc.Options{
		Conn:        opt.Conn,
		Mode:        opt.Mode,
		NoShadow:    opt.NoShadowManager,
		FullRelabel: opt.FullRelabel,
	}
	if opt.DirectDistribution {
		o.ChangeDist = cc.DistDirect
	}
	res, err := s.cc.RunContext(orBackground(ctx), im, o)
	if err != nil {
		return nil, err
	}
	return &CCResult{
		Labels:      res.Labels,
		Components:  res.Components,
		Report:      res.Report,
		MergePhases: res.Phases,
		Stages:      res.Stages,
	}, nil
}

// orBackground maps the nil context the entry points accept to
// context.Background().
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// ComponentStat summarizes one labeled component (area, bounding box,
// centroid, grey level) — the per-object measurements of the recognition
// task the paper's Table 2 benchmarks.
type ComponentStat = image.ComponentStat

// CensusResult is the outcome of a parallel component census.
type CensusResult struct {
	// Stats holds one entry per component, sorted by decreasing size —
	// identical to the host-side Census.
	Stats []ComponentStat
	// Report carries the modeled execution costs.
	Report Report
}

// Census computes the per-component statistics of a labeling on the
// simulated machine: each processor builds partial records for its tile
// and processor 0 merges them by label. The result equals the host-side
// Census exactly.
func (s *Simulator) Census(im *Image, labels *Labels) (*CensusResult, error) {
	res, err := cc.Census(s.m, im, labels)
	if err != nil {
		return nil, err
	}
	return &CensusResult{Stats: res.Stats, Report: res.Report}, nil
}

// Census computes per-component statistics of a labeling over its source
// image, sorted by decreasing size. A malformed image or labeling, or sides
// that do not match, returns an error.
func Census(l *Labels, im *Image) ([]ComponentStat, error) {
	return l.CensusChecked(im)
}

// Object is a classified component; ObjectClass is its coarse shape class.
type (
	Object      = recognize.Object
	ObjectClass = recognize.Class
)

// Shape classes recognized by ClassifyObjects.
const (
	ClassBlob      = recognize.Blob
	ClassBar       = recognize.Bar
	ClassRectangle = recognize.Rectangle
	ClassDisc      = recognize.Disc
	ClassRing      = recognize.Ring
	ClassSpeck     = recognize.Speck
)

// ClassifyObjects classifies every labeled component into a coarse shape
// class from its region features — the recognition step of the DARPA
// benchmark task the paper cites. Results are in decreasing size order. A
// malformed image or labeling, or sides that do not match, returns an
// error.
func ClassifyObjects(l *Labels, im *Image) ([]Object, error) {
	return recognize.Classify(l, im)
}

// Equalize returns the histogram-equalized image given its k-bucket
// histogram (e.g. from Simulator.Histogram); background is preserved. A
// malformed image returns an error, and so does a grey level >= len(h)
// (ErrGreyRange).
func Equalize(im *Image, h []int64) (*Image, error) { return image.Equalize(im, h) }

// ReadPGM reads a binary (P5) PGM image; it must be square.
func ReadPGM(r io.Reader) (*Image, error) { return image.ReadPGM(r) }

// WritePGM writes an image as a binary (P5) PGM with the given maximum
// grey value.
func WritePGM(w io.Writer, im *Image, maxVal int) error { return im.WritePGM(w, maxVal) }

// LabelByPropagation labels connected components with the iterative
// label-diffusion baseline (local relabel + neighbor exchange to a global
// fixed point), the approach of several Table 2 competitors. It produces
// the same canonical labeling as Label but needs a number of iterations
// proportional to the largest component's diameter in tiles, against
// Label's fixed log p merges; CCResult.MergePhases reports the iteration
// count. Only Conn and Mode of the options are honored.
func (s *Simulator) LabelByPropagation(im *Image, opt LabelOptions) (*CCResult, error) {
	res, err := cc.RunPropagation(s.m, im, cc.Options{Conn: opt.Conn, Mode: opt.Mode})
	if err != nil {
		return nil, err
	}
	return &CCResult{
		Labels:      res.Labels,
		Components:  res.Components,
		Report:      res.Report,
		MergePhases: res.Phases,
	}, nil
}

// LabelByPointerJumping labels connected components with the PRAM-style
// pointer-jumping baseline (Shiloach-Vishkin family, Table 2's
// "Shiloach/Vishkin alg." lineage). It produces the same canonical
// labeling as Label but performs a data-dependent remote read per pixel
// per iteration, which is why such algorithms port poorly to distributed
// memory; CCResult.MergePhases reports the iteration count. Only Conn and
// Mode of the options are honored; p must divide the image side.
func (s *Simulator) LabelByPointerJumping(im *Image, opt LabelOptions) (*CCResult, error) {
	res, err := cc.RunShiloachVishkin(s.m, im, cc.Options{Conn: opt.Conn, Mode: opt.Mode})
	if err != nil {
		return nil, err
	}
	return &CCResult{
		Labels:      res.Labels,
		Components:  res.Components,
		Report:      res.Report,
		MergePhases: res.Phases,
	}, nil
}

// HistogramSequential is the single-processor baseline histogram.
func HistogramSequential(im *Image, k int) ([]int64, error) { return im.Histogram(k) }

// LabelSequential is the single-processor baseline labeling, the paper's
// row-major BFS algorithm of Section 5.1 applied to the whole image. A
// malformed image (including sides beyond MaxSide, which would wrap the
// 32-bit seed labels), an unknown connectivity or an unknown mode returns
// an error.
func LabelSequential(im *Image, conn Connectivity, mode Mode) (*Labels, error) {
	if err := im.Check(); err != nil {
		return nil, err
	}
	if !conn.Valid() {
		return nil, errs.Bad("parimg.LabelSequential", "invalid connectivity %d (want 4 or 8)", int(conn))
	}
	if mode != Binary && mode != Grey {
		return nil, errs.Bad("parimg.LabelSequential", "invalid mode %d", int(mode))
	}
	return seq.LabelBFS(im, conn, mode), nil
}

// Label labels the connected components of im on the host-parallel
// engine: the paper's tile-labeling-plus-border-merge decomposition
// executed on GOMAXPROCS worker goroutines for real wall-clock speedup,
// with border merges resolved in one sparse union-find over the labels
// that reach a seam instead of a simulated message-passing machine. The
// labeling is pixel-for-pixel identical to LabelSequential (and to
// Simulator.Label). Only Conn, Mode and Metrics of the options are
// honored; the remaining fields configure simulator-only ablations.
//
// A malformed image (nil, wrong buffer length, side outside (0, MaxSide]),
// an unknown connectivity or an unknown mode returns an error from the
// taxonomy; in particular a side beyond MaxSide returns ErrLabelOverflow,
// because seed labels are 32-bit global indexes. On cancellation or
// deadline expiry of ctx the workers stop at their next checkpoint —
// between phases, inside the seam resolution, and every few rows inside
// the strip loops — and the call returns an error wrapping ErrCanceled or
// ErrDeadline; no partial labeling is returned. Safe for concurrent use.
func Label(ctx context.Context, im *Image, opt LabelOptions) (*Labels, error) {
	conn := opt.Conn
	if conn == 0 {
		conn = Conn8
	}
	return par.Label(ctx, opt.Metrics, im, conn, opt.Mode)
}

// Histogram computes the k-bucket histogram of im on the host-parallel
// engine: per-worker sharded tallies merged in a tree. Unlike
// Simulator.Histogram, k needs not be a power of two. See Label for the
// cancellation contract. Safe for concurrent use.
func Histogram(ctx context.Context, im *Image, k int) ([]int64, error) {
	return par.Histogram(ctx, im, k)
}

// NewParallelEngine returns a host-parallel engine with a fixed worker
// count (<= 0 selects GOMAXPROCS) and reusable scratch, for callers that
// label or histogram repeatedly and want to pin the parallelism. The
// engine is not safe for concurrent use; the package-level Label and
// Histogram draw pooled engines and are. Long-lived programs
// that create engines dynamically should retire them with Close, the
// counterpart of Simulator.Close: it drains any in-flight run (raising
// its stop flag, so cancelable runs unwind at the next checkpoint with
// ErrClosed), releases the scratch planes, and makes every later call
// return ErrClosed.
func NewParallelEngine(workers int) *ParallelEngine { return par.NewEngine(workers) }

// ParallelEngine is a reusable host-parallel executor; see NewParallelEngine.
type ParallelEngine = par.Engine
