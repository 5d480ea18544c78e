// Package sim implements Jockey's offline job simulator (§4.1 of the
// paper): an event-based simulation of one job executing at a fixed token
// allocation, parameterized by a job profile (per-stage task runtime and
// initialization-latency distributions and failure probabilities).
//
// The simulator captures the features the paper calls out as important —
// outliers (heavy-tailed task runtimes), barriers (all-to-all edges), task
// failures and re-execution, and limited parallelism — while ignoring
// aspects the paper's simulator also ignores (input-size variation,
// duplicate-task scheduling).
//
// Repeatedly running the simulator across an allocation grid yields the
// samples from which the C(p, a) remaining-time distributions are built
// (package model). Because one table build runs thousands of simulations
// and the online predictor re-runs them every control tick, the hot path
// is allocation-lean: a Runner allocates its arenas once per job shape and
// reuses them across runs, and the event queue never boxes. Callers that
// need only the completion time use Runner.RunCompletion, which records no
// trace at all.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/eventq"
	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// DefaultMaxAttempts bounds re-execution of a repeatedly failing task so a
// pathological failure probability cannot hang the simulation.
const DefaultMaxAttempts = 20

// Snapshot is the observable job state handed to sampling callbacks.
type Snapshot struct {
	Time     time.Duration
	FracDone []float64 // per stage, fraction of tasks complete (f_s)
	Running  int       // tasks currently executing
	Ready    int       // tasks ready but waiting for a token
}

// Config parameterizes one simulated execution.
type Config struct {
	Profile *profile.Profile
	// Alloc is the fixed token allocation (maximum concurrently running
	// tasks). Must be >= 1.
	Alloc int
	// Seed drives all randomness of this run.
	Seed uint64
	// DisableFailures turns off failure injection (used for the
	// infinite-resource critical-path runs behind the minstage-inf
	// indicator).
	DisableFailures bool
	// MaxAttempts bounds per-task attempts; 0 means DefaultMaxAttempts.
	MaxAttempts int
	// SampleEvery, if positive, invokes OnSample at this period during the
	// run (the paper samples per minute).
	SampleEvery time.Duration
	// OnSample receives periodic snapshots. Ignored if SampleEvery <= 0.
	OnSample func(Snapshot)
	// InitialFracDone, if non-nil, starts the simulation from a partially
	// completed job: per stage, the given fraction of tasks (rounded down)
	// begins as already finished. This supports online re-simulation from a
	// running job's state (§4.4's proposed enhancement). Must be parallel
	// to the plan's stages, and every entry must be a finite value in
	// [0, 1].
	InitialFracDone []float64
}

func (cfg *Config) validate() error {
	if cfg.Profile == nil {
		return fmt.Errorf("sim: nil profile")
	}
	if cfg.Alloc < 1 {
		return fmt.Errorf("sim: allocation %d; need at least 1 token", cfg.Alloc)
	}
	if cfg.InitialFracDone != nil {
		job := cfg.Profile.Job
		if len(cfg.InitialFracDone) != job.NumStages() {
			return fmt.Errorf("sim: InitialFracDone has %d entries; plan %q has %d stages",
				len(cfg.InitialFracDone), job.Name, job.NumStages())
		}
		// Reject NaN and ±Inf before they reach the int conversion in
		// applyInitialState, whose result Go leaves implementation-defined
		// for them.
		for s, f := range cfg.InitialFracDone {
			if math.IsNaN(f) || f < 0 || f > 1 {
				return fmt.Errorf("sim: InitialFracDone[%d] (stage %q of plan %q) is %v; want a finite fraction in [0, 1]",
					s, job.Stages[s].Name, job.Name, f)
			}
		}
	}
	return nil
}

// event is one queued simulator event packed into 32 bits: a task end is
// id<<1 | failed, for the ended attempt's global task id, and the all-ones
// value evSample is the periodic progress sample. Task ids stay below
// maxTasks, so no task end can equal evSample.
type event uint32

const evSample event = ^event(0)

// maxTasks bounds a plan's total task count: global task ids are int32,
// and the largest id packed as a failed task end stays below evSample.
const maxTasks = math.MaxInt32

// readyCompactMin is the minimum number of consumed entries before the
// ready FIFO compacts (see popReady); small queues never pay the copy.
const readyCompactMin = 1024

// Runner is a reusable simulation engine. The first run against a job plan
// allocates the engine's state arenas — flat per-task arrays indexed by a
// global int32 task id, the consumer adjacency, the ready FIFO and the
// event queue — sized to that plan; subsequent runs against the same plan
// (pointer-identical *dag.Job) reset them in place and allocate nothing
// beyond what the run itself records. This is the hot-path engine behind
// C(p, a) table builds and per-tick online re-simulation, where thousands
// of runs share one job shape.
//
// Task ids number the plan's tasks stage by stage: stage s owns ids
// [stageOff[s], stageOff[s+1]), so task i of stage s is id stageOff[s]+i.
//
// A Runner is NOT safe for concurrent use: callers that fan simulations
// out across goroutines hold one Runner per worker (see model.BuildCPA).
// Results are bit-identical to the one-shot Run function — same RNG draws,
// same event order, same trace — pinned by TestRunnerReuseBitIdentical.
type Runner struct {
	// Immutable per job shape (rebuilt only when the job changes).
	job      *dag.Job
	stageOff []int32 // len NumStages+1: first task id of each stage
	stageOf  []int32 // stage of each task id
	// consTo[consOff[i]:consOff[i+1]] lists the tasks that depend on task i
	// through one-to-one edges, in the order shape discovered them (which
	// fixes the order in which they become ready).
	consOff []int32
	consTo  []int32
	// baseDeps is the initial remaining-dependency count of every task,
	// derived from the plan's edges alone; reset copies it into remDeps.
	baseDeps []int32

	// Per-task state, indexed by task id.
	done     []bool
	remDeps  []int32
	attempts []int32
	// Timestamps of each task's in-flight attempt. Only traced runs write
	// and read them, so they are allocated by the first traced run.
	queuedAt     []time.Duration
	dispatchedAt []time.Duration // token-grant time
	startedAt    []time.Duration // exec-start time

	doneCount []int // per stage

	// Progress samples: frac holds each stage's completed fraction, owned
	// by the Runner and recomputed only for the stages listed in dirty
	// (those whose doneCount changed since the last sample); emitSample
	// copies it into fracBuf for the callback.
	frac      []float64
	fracDirty []bool
	dirty     []int32
	fracBuf   []float64

	ready     []int32 // FIFO queue of schedulable task ids
	readyHead int
	q         eventq.Queue[event]
	tr        trace.JobTrace
	src       *rand.PCG
	rng       *rand.Rand

	// snapshotCopy makes emitSample hand each OnSample callback a freshly
	// allocated FracDone slice (the one-shot Run contract, where callers
	// may retain snapshots). Runner's default hands out fracBuf, valid only
	// during the callback.
	snapshotCopy bool

	// Per-run state.
	cfg       Config
	p         *profile.Profile
	traced    bool // record the trace (Run) or only the completion (RunCompletion)
	now       time.Duration
	running   int
	tasksLeft int
	maxA      int
	// consistentStart (computed in debug builds only) records that every
	// pre-completed task of the start state had all its producers
	// completed too; see checkDep.
	consistentStart bool
}

// NewRunner returns an empty Runner; arenas are sized lazily by the first
// run's job plan.
func NewRunner() *Runner {
	src := stats.NewSource(0) //jockeyvet:ignore seedflow placeholder state only: reset() reseeds from cfg.Seed before every run
	return &Runner{src: src, rng: rand.New(src)}
}

// Run simulates one execution of the profiled job and returns its trace.
//
// Reuse contract: the returned trace AND the Snapshot.FracDone slices
// passed to cfg.OnSample are backed by the Runner's arenas and are valid
// only until the next Run or RunCompletion call. Callers that need to
// retain them must copy; callers that cannot honour that use the
// package-level Run, which allocates a fresh Runner per call and therefore
// carries no aliasing.
func (r *Runner) Run(cfg Config) (*trace.JobTrace, error) {
	if err := r.start(cfg, true); err != nil {
		return nil, err
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	r.tr.Completion = r.now
	return &r.tr, nil
}

// RunCompletion simulates one execution like Run but returns only the
// job's completion time. It draws the same random values in the same order
// and hands cfg.OnSample the same snapshots, so the completion equals
// Run(cfg).Completion exactly; it just records no trace (no per-attempt
// events, no queued/dispatched/started timestamps). C(p, a) builds and
// online re-simulation, which read nothing else, use it. Snapshots follow
// Run's reuse contract.
func (r *Runner) RunCompletion(cfg Config) (time.Duration, error) {
	if err := r.start(cfg, false); err != nil {
		return 0, err
	}
	if err := r.run(); err != nil {
		return 0, err
	}
	return r.now, nil
}

// Run simulates one execution of the profiled job and returns its trace.
// It is the one-shot convenience wrapper around Runner: a fresh Runner per
// call, so the returned trace and every Snapshot handed to OnSample are
// independently owned by the caller. Loops over many runs of the same job
// should hold a Runner instead.
func Run(cfg Config) (*trace.JobTrace, error) {
	r := NewRunner()
	r.snapshotCopy = true
	return r.Run(cfg)
}

// start validates cfg, (re)shapes the arenas if the plan changed and
// resets them for a run.
func (r *Runner) start(cfg Config, traced bool) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if r.job != cfg.Profile.Job {
		if err := r.shape(cfg.Profile.Job); err != nil {
			return err
		}
	}
	r.cfg = cfg
	r.p = cfg.Profile
	r.maxA = cfg.MaxAttempts
	if r.maxA <= 0 {
		r.maxA = DefaultMaxAttempts
	}
	r.traced = traced
	r.reset()
	return nil
}

// shape (re)builds the arenas for a new job plan: the flat per-task
// arrays, the stage index, and the consumer adjacency and base dependency
// counts, both of which depend only on the plan and are reused unchanged
// across runs.
func (r *Runner) shape(job *dag.Job) error {
	n := job.NumStages()
	total := 0
	for s := 0; s < n; s++ {
		total += job.Stages[s].Tasks
		if total > maxTasks {
			return fmt.Errorf("sim: plan %q has more than %d tasks", job.Name, maxTasks)
		}
	}
	r.job = job
	r.stageOff = make([]int32, n+1)
	r.stageOf = make([]int32, total)
	for s := 0; s < n; s++ {
		lo := r.stageOff[s]
		r.stageOff[s+1] = lo + int32(job.Stages[s].Tasks)
		for id := lo; id < r.stageOff[s+1]; id++ {
			r.stageOf[id] = int32(s)
		}
	}
	r.done = make([]bool, total)
	r.remDeps = make([]int32, total)
	r.attempts = make([]int32, total)
	r.queuedAt, r.dispatchedAt, r.startedAt = nil, nil, nil
	r.doneCount = make([]int, n)
	r.frac = make([]float64, n)
	r.fracDirty = make([]bool, n)
	r.dirty = make([]int32, 0, n)
	r.fracBuf = make([]float64, n)
	r.ready = make([]int32, 0, total)

	// Dependency counts: one unit per one-to-one producer task in range,
	// plus one unit per all-to-all input edge (satisfied when the producer
	// stage completes). The consumer lists are compressed rows: a counting
	// pass sizes each producer's row, a filling pass writes the rows in the
	// same (stage, edge, task, producer) order the walk visits them.
	r.baseDeps = make([]int32, total)
	r.consOff = make([]int32, total+1)
	edges := 0
	r.walkOneToOne(func(from, to int32) {
		r.consOff[from+1]++
		edges++
	})
	for id := 0; id < total; id++ {
		r.consOff[id+1] += r.consOff[id]
	}
	r.consTo = make([]int32, edges)
	fill := append([]int32(nil), r.consOff[:total]...)
	r.walkOneToOne(func(from, to int32) {
		r.consTo[fill[from]] = to
		fill[from]++
		r.baseDeps[to]++
	})
	for s := 0; s < n; s++ {
		for _, edge := range job.Inputs(s) {
			if edge.Kind != dag.AllToAll {
				continue
			}
			for id := r.stageOff[s]; id < r.stageOff[s+1]; id++ {
				r.baseDeps[id]++
			}
		}
	}
	if invariant.Debug {
		r.checkShape()
	}
	return nil
}

// walkOneToOne calls visit(producer, consumer) for every one-to-one task
// dependency of the plan being shaped, in stage, input-edge, consumer-task
// and producer-task order. It needs only stageOff.
func (r *Runner) walkOneToOne(visit func(from, to int32)) {
	job := r.job
	for s := 0; s < job.NumStages(); s++ {
		for _, edge := range job.Inputs(s) {
			if edge.Kind == dag.AllToAll {
				continue
			}
			for task := 0; task < job.Stages[s].Tasks; task++ {
				lo, hi := job.DepRange(edge, task)
				for i := lo; i < hi; i++ {
					visit(r.stageOff[edge.From]+int32(i), r.stageOff[s]+int32(task))
				}
			}
		}
	}
}

// reset reinitializes the per-run state in place: counters and flags are
// cleared, dependency counts restored from baseDeps, the ready FIFO, event
// queue, trace and RNG rewound. Nothing allocates once the arenas exist.
// The timestamp arrays are not cleared: a traced run writes each of them
// before reading it.
func (r *Runner) reset() {
	clear(r.done)
	copy(r.remDeps, r.baseDeps)
	clear(r.attempts)
	clear(r.doneCount)
	r.ready = r.ready[:0]
	r.readyHead = 0
	r.q.Reset()
	if r.traced {
		if len(r.queuedAt) != len(r.done) {
			r.queuedAt = make([]time.Duration, len(r.done))
			r.dispatchedAt = make([]time.Duration, len(r.done))
			r.startedAt = make([]time.Duration, len(r.done))
		}
		r.tr.Reset(r.job.Name, r.job.NumStages())
	}
	stats.ReseedSource(r.src, r.cfg.Seed)
	r.now = 0
	r.running = 0
	r.tasksLeft = len(r.done)

	r.applyInitialState()
	if invariant.Debug {
		r.consistentStart = r.startIsConsistent()
	}
	for id := range r.remDeps {
		if r.remDeps[id] == 0 && !r.done[id] {
			r.markReady(int32(id))
		}
	}
	clear(r.fracDirty)
	r.dirty = r.dirty[:0]
	if r.cfg.SampleEvery > 0 && r.cfg.OnSample != nil {
		for s := range r.frac {
			r.frac[s] = float64(r.doneCount[s]) / float64(r.job.Stages[s].Tasks)
		}
		r.q.Push(r.cfg.SampleEvery, evSample)
	}
}

// applyInitialState pre-completes tasks according to InitialFracDone,
// propagating dependency satisfaction exactly as live completions would.
func (r *Runner) applyInitialState() {
	fracs := r.cfg.InitialFracDone
	if fracs == nil {
		return
	}
	job := r.job
	// First mark per-task completions and satisfy one-to-one consumers.
	// validate checked that every fraction is finite and within [0, 1].
	for s := 0; s < job.NumStages(); s++ {
		k := int32(fracs[s] * float64(job.Stages[s].Tasks))
		lo := r.stageOff[s]
		for id := lo; id < lo+k; id++ {
			r.done[id] = true
			r.doneCount[s]++
			r.tasksLeft--
			for _, c := range r.consTo[r.consOff[id]:r.consOff[id+1]] {
				r.remDeps[c]--
			}
		}
	}
	// Then satisfy all-to-all consumers of fully completed stages.
	for s := 0; s < job.NumStages(); s++ {
		if r.doneCount[s] != job.Stages[s].Tasks {
			continue
		}
		for _, edge := range job.Outputs(s) {
			if edge.Kind != dag.AllToAll {
				continue
			}
			for id := r.stageOff[edge.To]; id < r.stageOff[edge.To+1]; id++ {
				r.remDeps[id]--
			}
		}
	}
}

//jockey:hotpath
func (r *Runner) markReady(id int32) {
	if r.traced {
		r.queuedAt[id] = r.now
	}
	r.ready = append(r.ready, id)
}

// popReady dequeues the oldest ready task. The FIFO is a slice plus a head
// index; consumed entries are compacted away (a copy-down, preserving
// order) only once at least readyCompactMin entries are dead AND they make
// up at least half the slice, so the amortized cost per task stays O(1)
// and the backing array stops growing at the job's high-water ready count.
// Compaction is content-preserving, so it cannot affect simulation
// results, and reset rewinds head and length while keeping capacity.
//
//jockey:hotpath
func (r *Runner) popReady() (int32, bool) {
	if r.readyHead >= len(r.ready) {
		return 0, false
	}
	id := r.ready[r.readyHead]
	r.readyHead++
	if r.readyHead >= readyCompactMin && r.readyHead*2 >= len(r.ready) {
		n := copy(r.ready, r.ready[r.readyHead:])
		r.ready = r.ready[:n]
		r.readyHead = 0
	}
	return id, true
}

//jockey:hotpath
func (r *Runner) readyLen() int { return len(r.ready) - r.readyHead }

// dispatch starts ready tasks while tokens are available.
//
//jockey:hotpath
func (r *Runner) dispatch() {
	for r.running < r.cfg.Alloc {
		id, ok := r.popReady()
		if !ok {
			return
		}
		r.startTask(id)
	}
}

//jockey:hotpath
func (r *Runner) startTask(id int32) {
	sp := &r.p.Stages[r.stageOf[id]]
	initDelay := sp.Queue.Sample(r.rng)
	exec := sp.Exec.Sample(r.rng)
	if exec <= 0 {
		exec = time.Millisecond
	}
	ev := event(id) << 1
	if !r.cfg.DisableFailures && int(r.attempts[id]) < r.maxA-1 && sp.FailureProb > 0 &&
		r.rng.Float64() < sp.FailureProb {
		// A failing attempt dies partway through its service time.
		exec = time.Duration(float64(exec) * r.rng.Float64())
		if exec <= 0 {
			exec = time.Millisecond
		}
		ev |= 1
	}
	if r.traced {
		r.dispatchedAt[id] = r.now
		r.startedAt[id] = r.now + initDelay
	}
	r.running++
	r.q.Push(r.now+initDelay+exec, ev)
}

//jockey:hotpath
func (r *Runner) run() error {
	r.dispatch()
	for r.tasksLeft > 0 {
		at, ev, ok := r.q.Pop()
		if !ok {
			return fmt.Errorf("sim: job %q stalled at %v with %d tasks left (plan bug?)", //jockeyvet:ignore hotalloc cold path: a stall is a plan bug that ends the run
				r.job.Name, r.now, r.tasksLeft)
		}
		r.now = at
		if ev == evSample {
			r.emitSample()
			if r.tasksLeft > 0 {
				r.q.Push(r.now+r.cfg.SampleEvery, evSample)
			}
			continue
		}
		r.finishTask(int32(ev>>1), ev&1 != 0)
	}
	return nil
}

func (r *Runner) emitSample() {
	for _, s := range r.dirty {
		r.frac[s] = float64(r.doneCount[s]) / float64(r.job.Stages[s].Tasks)
		r.fracDirty[s] = false
	}
	r.dirty = r.dirty[:0]
	frac := r.fracBuf
	if r.snapshotCopy {
		frac = make([]float64, len(r.frac))
	}
	copy(frac, r.frac)
	r.cfg.OnSample(Snapshot{
		Time:     r.now,
		FracDone: frac,
		Running:  r.running,
		Ready:    r.readyLen(),
	})
}

//jockey:hotpath
func (r *Runner) finishTask(id int32, failed bool) {
	r.running--
	if r.traced {
		r.record(id, failed)
	}
	if failed {
		r.attempts[id]++
		r.markReady(id)
		r.dispatch()
		return
	}
	s := r.stageOf[id]
	r.done[id] = true
	r.doneCount[s]++
	r.tasksLeft--
	if !r.fracDirty[s] {
		r.fracDirty[s] = true
		r.dirty = append(r.dirty, s)
	}
	// Satisfy one-to-one consumers of this task.
	for _, c := range r.consTo[r.consOff[id]:r.consOff[id+1]] {
		r.satisfy(c)
	}
	// Satisfy all-to-all consumers if the stage just completed.
	if r.doneCount[s] == int(r.stageOff[s+1]-r.stageOff[s]) {
		for _, edge := range r.job.Outputs(int(s)) {
			if edge.Kind != dag.AllToAll {
				continue
			}
			for c := r.stageOff[edge.To]; c < r.stageOff[edge.To+1]; c++ {
				r.satisfy(c)
			}
		}
	}
	r.dispatch()
}

// satisfy retires one unmet dependency of task c, readying it on the last.
//
//jockey:hotpath
func (r *Runner) satisfy(c int32) {
	r.remDeps[c]--
	if invariant.Debug {
		r.checkDep(c)
	}
	if r.remDeps[c] == 0 {
		r.markReady(c)
	}
}

// record appends the ended attempt of task id to the trace.
//
//jockey:hotpath
func (r *Runner) record(id int32, failed bool) {
	s := r.stageOf[id]
	r.tr.AddTask(trace.TaskEvent{
		Stage:      int(s),
		Task:       int(id - r.stageOff[s]),
		Attempt:    int(r.attempts[id]),
		Queued:     r.queuedAt[id],
		Dispatched: r.dispatchedAt[id],
		Started:    r.startedAt[id],
		Ended:      r.now,
		Failed:     failed,
	})
}
