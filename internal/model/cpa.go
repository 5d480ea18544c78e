package model

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/utility"
)

// CPAConfig parameterizes construction of the C(p, a) table.
type CPAConfig struct {
	// Allocs is the grid of candidate allocations to simulate. Required,
	// ascending and positive.
	Allocs []int
	// RunsPerAlloc is how many simulations feed each allocation's
	// distributions (default 10).
	RunsPerAlloc int
	// SampleEvery is the progress-sampling period within each simulated run
	// (default 30s; the paper records per discrete time step).
	SampleEvery time.Duration
	// Buckets is the number of progress cells (default 100, i.e. 1% cells).
	Buckets int
	// ReservoirCap bounds the samples kept per cell (default 64).
	ReservoirCap int
	// Seed drives the simulations.
	Seed uint64
	// Parallelism bounds the worker pool that runs the offline simulations
	// (default runtime.GOMAXPROCS(0)). The table is bit-identical at any
	// value: each (alloc, run) cell derives its RNG seed independently of
	// the others, workers write only their own observation chunks and
	// their cells' slots, and the observations are folded into the
	// reservoirs in fixed index order afterwards.
	Parallelism int
	// Quantize stores the table's cells as fixed-point int32 milliseconds
	// instead of time.Duration, halving the table's resident size (the knob
	// for cosmos-scale fleets holding hundreds of tables). Quantization is
	// applied once at build time, after the presort; queries never convert
	// per-sample. Remaining/ExpectedUtility results differ from the exact
	// table by at most the 1ms cell resolution, so the default is off and
	// golden outputs are unchanged unless a caller opts in.
	Quantize bool
}

func (c *CPAConfig) fill() error {
	if len(c.Allocs) == 0 {
		return fmt.Errorf("model: CPAConfig.Allocs is empty")
	}
	prev := 0
	for _, a := range c.Allocs {
		if a <= prev {
			return fmt.Errorf("model: CPAConfig.Allocs must be ascending and positive, got %v", c.Allocs)
		}
		prev = a
	}
	if c.RunsPerAlloc <= 0 {
		c.RunsPerAlloc = 10
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 30 * time.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 100
	}
	if c.ReservoirCap <= 0 {
		c.ReservoirCap = 64
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return nil
}

// runParallel invokes fn(i) for every i in [0, n) on up to `workers`
// goroutines, pulling indices from a shared atomic counter. fn must only
// write state owned by index i.
func runParallel(n, workers int, fn func(int)) {
	runParallelWorkers(n, workers, func(_, i int) { fn(i) })
}

// runParallelWorkers is runParallel with the executing worker's identity
// (0 <= worker < workers) passed to fn, so callers can hand each worker
// its own reusable scratch state — e.g. one sim.Runner per worker, since
// Runners are cheap to reuse but not concurrency-safe. Worker identity
// must not influence results (the index-derived seeds and the
// deterministic merge guarantee that for the model builds).
func runParallelWorkers(n, workers int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// CPA is the precomputed table of remaining-completion-time distributions
// C(p, a): for each allocation a in the grid and each progress bucket p, a
// bounded sample of observed remaining times from offline simulations.
type CPA struct {
	indicator progress.Indicator
	allocs    []int
	buckets   int
	// cells[ai][b] holds remaining-time samples for allocation index ai and
	// progress bucket b. Every cell is sorted ascending once at build time,
	// so quantile queries index the sorted slice directly (no per-query
	// copy or sort). The cell slices are therefore shared and READ-ONLY
	// after construction; in `-tags invariantdebug` builds, sums holds a
	// per-cell checksum and samplesAt asserts it on every access.
	cells [][]*stats.Reservoir
	sums  [][]uint64
	// quant replaces cells when CPAConfig.Quantize is set: the same sorted
	// samples as int32 milliseconds (truncated, which preserves order).
	// Exactly one of cells/quant is non-nil after construction.
	quant [][][]int32
}

// BuildCPA runs the offline simulator across the allocation grid and builds
// the C(p, a) table, using the supplied indicator to compute progress p —
// the same indicator the control loop will use to index the table at
// runtime.
func BuildCPA(p *profile.Profile, ind progress.Indicator, cfg CPAConfig) (*CPA, error) {
	if p == nil || ind == nil {
		return nil, fmt.Errorf("model: BuildCPA requires a profile and an indicator")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &CPA{
		indicator: ind,
		allocs:    append([]int(nil), cfg.Allocs...),
		buckets:   cfg.Buckets,
		cells:     make([][]*stats.Reservoir, len(cfg.Allocs)),
	}
	// Phase 1 — fan out: every (alloc, run) cell is an independent
	// simulation whose seed depends only on (Seed, alloc, run), so the
	// worker pool can execute cells in any order on any number of
	// goroutines. Each worker holds one reusable simulation engine and its
	// own observation chunks, stores each cell's observations there and
	// writes only its cell's cellObs slot — worker identity touches memory
	// reuse only, never results.
	nCells := len(c.allocs) * cfg.RunsPerAlloc
	cellObs := make([][]cpaObs, nCells)
	cellErr := make([]error, nCells)
	workers := make([]cpaWorker, min(cfg.Parallelism, nCells))
	allocLabels := make([]string, len(c.allocs))
	for ai, a := range c.allocs {
		allocLabels[ai] = strconv.Itoa(a)
	}
	runLabels := make([]string, cfg.RunsPerAlloc)
	for run := range runLabels {
		runLabels[run] = strconv.Itoa(run)
	}
	runParallelWorkers(nCells, len(workers), func(worker, idx int) {
		ai := idx / cfg.RunsPerAlloc
		run := idx % cfg.RunsPerAlloc
		w := &workers[worker]
		if w.r == nil {
			w.init(ind, c.buckets)
		}
		w.cur = w.cur[:0]
		completion, err := w.r.RunCompletion(sim.Config{
			Profile:     p,
			Alloc:       c.allocs[ai],
			Seed:        stats.DeriveSeed(cfg.Seed, "cpa", allocLabels[ai], runLabels[run]),
			SampleEvery: cfg.SampleEvery,
			OnSample:    w.onSample,
		})
		if err != nil {
			cellErr[idx] = err
			return
		}
		cellObs[idx] = w.keep(completion)
	})
	for _, err := range cellErr {
		if err != nil {
			return nil, err
		}
	}
	// Phase 2 — deterministic merge. Count each reservoir's offers first,
	// so every reservoir's storage is carved at its final size from one
	// array per table; then fold the per-cell observations into the
	// reservoirs in fixed (alloc, run) index order with one shared
	// reservoir RNG. This replays the exact Add sequence of a sequential
	// build, so the table is bit-identical at any Parallelism.
	row := cfg.Buckets + 1
	offers := make([]int, len(c.allocs)*row)
	for idx := 0; idx < nCells; idx++ {
		ai := idx / cfg.RunsPerAlloc
		for _, o := range cellObs[idx] {
			offers[ai*row+o.bucket]++
		}
	}
	reservoirs := stats.NewReservoirs(cfg.ReservoirCap, offers)
	ptrs := make([]*stats.Reservoir, len(reservoirs))
	for i := range reservoirs {
		ptrs[i] = &reservoirs[i]
	}
	for ai := range c.cells {
		c.cells[ai] = ptrs[ai*row : (ai+1)*row : (ai+1)*row]
	}
	rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, "cpa-reservoir"))
	for idx := 0; idx < nCells; idx++ {
		ai := idx / cfg.RunsPerAlloc
		for _, o := range cellObs[idx] {
			c.cells[ai][o.bucket].Add(o.v, rng)
		}
	}
	// Phase 3 — presort: order every cell ascending exactly once, so
	// Remaining is an O(1)-allocation quantile lookup and ExpectedUtility
	// iterates the shared sorted slice. Sorting after the merge preserves
	// the reservoirs' retained multisets, so quantiles equal the old
	// copy-and-sort-per-query values bit for bit
	// (TestPresortedQuantilesMatchReference).
	for ai := range c.cells {
		for b := range c.cells[ai] {
			c.cells[ai][b].Sort()
		}
	}
	// Phase 4 (opt-in) — quantize: copy each sorted cell into fixed-point
	// int32 milliseconds and drop the Duration reservoirs. Truncation is
	// monotone, so the quantized cells stay sorted and the widening search
	// sees the same empty/non-empty structure.
	if cfg.Quantize {
		c.quant = make([][][]int32, len(c.cells))
		for ai := range c.cells {
			c.quant[ai] = make([][]int32, len(c.cells[ai]))
			for b := range c.cells[ai] {
				vs := c.cells[ai][b].Values()
				qs := make([]int32, len(vs))
				for i, v := range vs {
					qs[i] = int32(v / time.Millisecond)
				}
				c.quant[ai][b] = qs
			}
		}
		c.cells = nil
		return c, nil
	}
	if invariant.Debug {
		c.sums = make([][]uint64, len(c.cells))
		for ai := range c.cells {
			c.sums[ai] = make([]uint64, len(c.cells[ai]))
			for b := range c.cells[ai] {
				c.sums[ai][b] = invariant.ChecksumDurations(c.cells[ai][b].Values())
			}
		}
	}
	return c, nil
}

// cpaObs is one observation of a C(p, a) build: a remaining time seen at a
// progress bucket.
type cpaObs struct {
	bucket int
	v      time.Duration
}

// cpaWorker is one build worker's reusable state: a simulation engine, the
// samples of the run in flight, and the chunk it stores finished cells'
// observations in (earlier chunks stay referenced by their cells'
// slices). onSample is bound once, so no cell allocates a callback.
type cpaWorker struct {
	r        *sim.Runner
	ind      progress.Indicator
	buckets  int
	onSample func(sim.Snapshot)
	cur      []cpaObs // the run in flight: each sample's bucket and time
	chunk    []cpaObs // finished cells' observations, cell after cell
}

// obsChunk is the size of a worker's observation chunks (64 KB). A build
// whose observations fit one chunk per worker allocates the same number of
// times whatever its RunsPerAlloc (TestBuildCPAAllocsIndependentOfRuns);
// larger builds add one allocation per chunk.
const obsChunk = 4096

func (w *cpaWorker) init(ind progress.Indicator, buckets int) {
	w.r = sim.NewRunner()
	w.ind = ind
	w.buckets = buckets
	w.onSample = w.sample
}

// sample records a progress sample's bucket and time. s.FracDone is the
// Runner's scratch buffer; Progress consumes it inside the callback,
// nothing is retained.
func (w *cpaWorker) sample(s sim.Snapshot) {
	w.cur = append(w.cur, cpaObs{bucket: bucketOf(w.ind.Progress(s.FracDone), w.buckets), v: s.Time})
}

// keep stores the finished run's observations in the worker's chunk
// (opening a new one if they do not fit) and returns them: first (p = 0,
// the completion), then each sample's remaining time, then the completion
// itself (p = 1, nothing remaining). A chunk is never appended past its
// capacity, so its backing array never moves and the returned slice stays
// valid while later cells fill the rest of the chunk.
func (w *cpaWorker) keep(completion time.Duration) []cpaObs {
	need := len(w.cur) + 2
	if cap(w.chunk)-len(w.chunk) < need {
		w.chunk = make([]cpaObs, 0, max(obsChunk, need))
	}
	lo := len(w.chunk)
	ch := append(w.chunk, cpaObs{bucket: 0, v: completion})
	for _, o := range w.cur {
		if remaining := completion - o.v; remaining >= 0 {
			ch = append(ch, cpaObs{bucket: o.bucket, v: remaining})
		}
	}
	ch = append(ch, cpaObs{bucket: w.buckets})
	w.chunk = ch
	return ch[lo:len(ch):len(ch)]
}

func (c *CPA) bucket(p float64) int { return bucketOf(p, c.buckets) }

// bucketOf maps progress p ∈ [0, 1] to one of buckets+1 cells, clamping
// out-of-range values. It is a free function so simulation workers can
// bucket their own samples without sharing CPA state.
func bucketOf(p float64, buckets int) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return buckets
	}
	return int(p * float64(buckets))
}

// Indicator returns the progress indicator the table was built with.
func (c *CPA) Indicator() progress.Indicator { return c.indicator }

// Allocs returns the allocation grid. The slice is owned by the CPA.
func (c *CPA) Allocs() []int { return c.allocs }

// SnapAlloc returns the grid allocation closest to a (ties go down).
func (c *CPA) SnapAlloc(a int) int {
	i := sort.SearchInts(c.allocs, a)
	if i == 0 {
		return c.allocs[0]
	}
	if i == len(c.allocs) {
		return c.allocs[len(c.allocs)-1]
	}
	if c.allocs[i]-a < a-c.allocs[i-1] {
		return c.allocs[i]
	}
	return c.allocs[i-1]
}

func (c *CPA) allocIndex(a int) int {
	snapped := c.SnapAlloc(a)
	for i, v := range c.allocs {
		if v == snapped {
			return i
		}
	}
	return 0 // unreachable
}

// samplesAt returns the remaining-time samples for progress p at allocation
// a, widening the search to neighbouring progress buckets until it finds a
// non-empty cell. The returned slice is sorted ascending, shared between
// every caller, and READ-ONLY: Remaining and ExpectedUtility consume it
// without copying, so a mutation would silently corrupt every later query.
// Debug builds (-tags invariantdebug) verify a build-time checksum of the
// cell on every access and panic on mutation.
func (c *CPA) samplesAt(p float64, a int) []time.Duration {
	ai, b, ok := c.findCell(p, a)
	if !ok {
		return nil
	}
	return c.readOnly(ai, b, c.cells[ai][b].Values())
}

// cellLen returns the sample count of cell (ai, b) under either storage.
//
//jockey:hotpath
func (c *CPA) cellLen(ai, b int) int {
	if c.quant != nil {
		return len(c.quant[ai][b])
	}
	return len(c.cells[ai][b].Values())
}

// findCell locates the cell serving progress p at allocation a, widening
// symmetrically to neighbouring progress buckets (preferring the lower, more
// pessimistic one) until it finds a non-empty cell. The widening structure
// depends only on which cells are empty, which quantization preserves, so
// exact and quantized tables always answer from the same cell.
//
//jockey:hotpath
func (c *CPA) findCell(p float64, a int) (ai, b int, ok bool) {
	ai = c.allocIndex(a)
	b = c.bucket(p)
	if c.cellLen(ai, b) > 0 {
		return ai, b, true
	}
	for d := 1; d <= c.buckets; d++ {
		if b-d >= 0 && c.cellLen(ai, b-d) > 0 {
			return ai, b - d, true
		}
		if b+d <= c.buckets && c.cellLen(ai, b+d) > 0 {
			return ai, b + d, true
		}
	}
	return 0, 0, false
}

// quantileMillis is stats.QuantileDurations over a sorted fixed-point
// millisecond cell: identical clamp and interpolation semantics, with the
// conversion to time.Duration applied only to the (at most two) samples the
// quantile touches.
//
//jockey:hotpath
func quantileMillis(sorted []int32, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(sorted[0]) * time.Millisecond
	}
	if q >= 1 {
		return time.Duration(sorted[len(sorted)-1]) * time.Millisecond
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return time.Duration(sorted[lo]) * time.Millisecond
	}
	frac := pos - float64(lo)
	ms := float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
	return time.Duration(ms * float64(time.Millisecond))
}

// readOnly enforces the read-only-cells contract in debug builds: the cell
// being handed out must still hash to its build-time checksum. The Debug
// constant is false in default builds, so the check (and the sums table)
// compiles away.
func (c *CPA) readOnly(ai, b int, vs []time.Duration) []time.Duration {
	if invariant.Debug && c.sums != nil {
		invariant.Assertf(invariant.ChecksumDurations(vs) == c.sums[ai][b],
			"model: C(p,a) cell (alloc=%d, bucket=%d) mutated since build; cell slices are read-only",
			c.allocs[ai], b)
	}
	return vs
}

// Name implements Predictor.
func (c *CPA) Name() string { return "simulator" }

// Progress evaluates the table's indicator on a state.
func (c *CPA) Progress(st State) float64 { return c.indicator.Progress(st.FracDone) }

// Remaining implements Predictor: the q-quantile of C(p, a). Cells are
// sorted at build time, so this is a widening search plus an interpolated
// index — zero allocations per query (pinned by TestCPAQueryZeroAllocs),
// where it previously copied and re-sorted the cell on every call.
func (c *CPA) Remaining(st State, a int, q float64) time.Duration {
	if c.quant != nil {
		ai, b, ok := c.findCell(c.Progress(st), a)
		if !ok {
			return 0
		}
		return quantileMillis(c.quant[ai][b], q)
	}
	return stats.QuantileDurations(c.samplesAt(c.Progress(st), a), q)
}

// ExpectedUtility implements Predictor: the mean of U(elapsed + slack·C)
// over the sampled remaining times. Averaging over the distribution rather
// than a point estimate reproduces the paper's safety buffer: a heavy upper
// tail of C(p, a) drags expected utility down near the deadline.
func (c *CPA) ExpectedUtility(st State, a int, slack float64, u utility.Fn) float64 {
	if c.quant != nil {
		ai, b, ok := c.findCell(c.Progress(st), a)
		if !ok {
			return u.Utility(st.Elapsed)
		}
		cell := c.quant[ai][b]
		var sum float64
		for _, ms := range cell {
			rem := time.Duration(ms) * time.Millisecond
			t := st.Elapsed + time.Duration(float64(rem)*slack)
			sum += u.Utility(t)
		}
		return sum / float64(len(cell))
	}
	samples := c.samplesAt(c.Progress(st), a)
	if len(samples) == 0 {
		return u.Utility(st.Elapsed)
	}
	var sum float64
	for _, rem := range samples {
		t := st.Elapsed + time.Duration(float64(rem)*slack)
		sum += u.Utility(t)
	}
	return sum / float64(len(samples))
}
