package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/experiments"
	"github.com/jockeysim/jockey/internal/fleet"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// size selects the benchmark's workloads at full scale or at the tiny scale
// the harness self-test runs.
type size int

const (
	full size = iota
	tiny
)

// workload is one fixed replay the benchmark times.
type workload struct {
	name string
	// setup builds everything a replay needs from the seed: profiles, the
	// offline C(p, a) models (each build timed by b) and the reusable
	// engines. It runs no replay.
	setup func(seed uint64, sz size, b *builds) (instance, error)
}

// instance is a set-up workload. replay is the only timed call; verify
// digests and checks what the last replay produced, outside the timer.
type instance interface {
	// replay runs the program once. A non-nil c turns on the program's
	// observer hooks, which feed it; the untraced run passes nil.
	replay(c *counters) error
	// verify hashes the last replay's full simulated result, checks its
	// invariants and, when c is non-nil, adds its result-derived counts.
	verify(c *counters) (result, error)
}

// result is what one verified replay reports.
type result struct {
	// digest is the SHA-256 of the replay's full simulated result.
	digest string
	// met of slos SLOs were met: offers on fleet-scale, jobs on
	// cosmos-engine, runs on slo-guarded-drift.
	met, slos int
	// aboveOracle is the mean share of allocation above the oracle over
	// the replay's SLO runs (slo-guarded-drift only; 0 elsewhere).
	aboveOracle float64
}

// counters accumulates the per-layer counts of a traced run, taken from
// the program's public hooks and results.
type counters struct {
	fleetEpochs, fleetActive, fleetBidders, fleetHeapOps int
	fleetAdmitted, fleetRejected                         int
	decisions, reprofiles                                int
	evictions, taskAttempts                              int
	spareFracSum                                         float64
	spareJobs                                            int
}

var workloads = []workload{
	{name: "fleet-scale", setup: setupFleetScale},
	{name: "cosmos-engine", setup: setupCosmosEngine},
	{name: "slo-guarded-drift", setup: setupSLOGuardedDrift},
}

func digestOf(write func(h hash.Hash)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil))
}

// --- fleet-scale ---

// fleetScale is the 2,400-offer utility-greedy fleet replay (the fleet
// package's fleetScaleConfig): 700×5 machines, a 3,500-token budget and
// one offer per 8 s, which keeps about 84 jobs live per epoch on average.
type fleetScale struct {
	cfg         fleet.Config
	minAdmitted int
	shapes      map[string]bool
	last        *fleet.Result
}

// fleetShapes mirrors the fleet package's arrival shape table: four plans,
// each unscaled or at input scale 1.2. Set-up builds their models ahead of
// the warm-up replay so model.build_s covers them; verify fails a replay
// that offers a shape missing here, whose model the replay would build.
var fleetShapes = []fleet.Shape{
	{Tasks: 64}, {Tasks: 64, Scale: 1.2},
	{Tasks: 96, Barrier: true}, {Tasks: 96, Barrier: true, Scale: 1.2},
	{Tasks: 144}, {Tasks: 144, Scale: 1.2},
	{Tasks: 192, Barrier: true}, {Tasks: 192, Barrier: true, Scale: 1.2},
}

func setupFleetScale(seed uint64, sz size, b *builds) (instance, error) {
	models := fleet.NewModelCache(stats.DeriveSeed(seed, "fleet-models"))
	models.SetParallelism(1)
	shapes := map[string]bool{}
	for _, s := range fleetShapes {
		shapes[s.Key()] = true
		if err := b.time(func() error {
			_, err := models.Model(s)
			return err
		}); err != nil {
			return nil, fmt.Errorf("model for %s: %w", s.Key(), err)
		}
	}
	w := &fleetScale{
		cfg: fleet.Config{
			Seed:             seed,
			Machines:         700,
			SlotsPerMachine:  5,
			Budget:           3500,
			Arrivals:         2400,
			MeanInterarrival: 8 * time.Second,
			Arbitration:      fleet.UtilityGreedy,
			Models:           models,
			Engine:           cluster.NewEngine(),
		},
		minAdmitted: 2000,
		shapes:      shapes,
	}
	if sz == tiny {
		w.cfg.Machines, w.cfg.Budget, w.cfg.Arrivals = 20, 100, 24
		w.cfg.MeanInterarrival = 2 * time.Minute
		w.minAdmitted = 12
	}
	return w, nil
}

func (w *fleetScale) replay(c *counters) error {
	cfg := w.cfg
	if c != nil {
		cfg.OnEpoch = func(s fleet.EpochStats) {
			c.fleetEpochs++
			c.fleetActive += s.Active
			c.fleetBidders += s.Bidders
			c.fleetHeapOps += s.HeapOps
		}
	}
	res, err := fleet.Run(cfg)
	w.last = res
	return err
}

func (w *fleetScale) verify(c *counters) (result, error) {
	res := w.last
	if res == nil {
		return result{}, fmt.Errorf("fleet-scale: no replay result")
	}
	r := result{
		digest: digestOf(func(h hash.Hash) { fmt.Fprint(h, res.Render()) }),
		met:    res.Met,
		slos:   len(res.Jobs),
	}
	if c != nil {
		c.fleetAdmitted += res.Admitted
		c.fleetRejected += res.Rejected
	}
	for _, j := range res.Jobs {
		if !w.shapes[j.Shape] {
			return r, fmt.Errorf("fleet-scale: offer %d has shape %s, whose model set-up did not build", j.ID, j.Shape)
		}
	}
	if got := res.Admitted + res.Rejected; got != w.cfg.Arrivals {
		return r, fmt.Errorf("fleet-scale: admitted %d + rejected %d = %d, want %d offers",
			res.Admitted, res.Rejected, got, w.cfg.Arrivals)
	}
	if res.Admitted < w.minAdmitted {
		return r, fmt.Errorf("fleet-scale: admitted %d offers, want >= %d", res.Admitted, w.minAdmitted)
	}
	return r, nil
}

// --- cosmos-engine ---

// cosmosScale sizes the Cosmos-like engine replay of the cluster package's
// largecluster tests: background jobs plus one deadline job, all tracked
// so every task attempt is simulated.
type cosmosScale struct {
	machines, slots         int
	bgTasks, bg2Tasks       int
	fgMap, fgReduce         int
	bgGuar, bg2Guar, fgGuar int
	mtbf                    time.Duration
}

// 10k machines × 10 slots; guarantees alone pin 95k tasks and spare
// redistribution fills the rest, so the replay holds ≥1e5 concurrent tasks.
var cosmosFull = cosmosScale{
	machines: 10000, slots: 10,
	bgTasks: 120000, bg2Tasks: 60000,
	fgMap: 20000, fgReduce: 4000,
	bgGuar: 50000, bg2Guar: 25000, fgGuar: 20000,
	mtbf: 2000 * time.Hour,
}

var cosmosTiny = cosmosScale{
	machines: 100, slots: 10,
	bgTasks: 1200, bg2Tasks: 600,
	fgMap: 200, fgReduce: 40,
	bgGuar: 500, bg2Guar: 250, fgGuar: 200,
	mtbf: 20 * time.Hour,
}

type cosmosEngine struct {
	eng  *cluster.Engine
	cfg  cluster.Config
	jobs []cluster.JobConfig
	last []cluster.Result
	done []bool
}

func setupCosmosEngine(seed uint64, sz size, _ *builds) (instance, error) {
	ls := cosmosFull
	if sz == tiny {
		ls = cosmosTiny
	}
	bgJob, err := dag.NewBuilder("lc-bg").Stage("work", ls.bgTasks).Build()
	if err != nil {
		return nil, err
	}
	bg, err := profile.New(bgJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(40*time.Second, 2*time.Minute),
			Queue: stats.Exponential{MeanValue: time.Second}, FailureProb: 0.01},
	})
	if err != nil {
		return nil, err
	}
	bg2Job, err := dag.NewBuilder("lc-bg2").Stage("work", ls.bg2Tasks).Build()
	if err != nil {
		return nil, err
	}
	bg2, err := profile.New(bg2Job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(time.Minute, 3*time.Minute)},
	})
	if err != nil {
		return nil, err
	}
	fgJob, err := dag.NewBuilder("lc-fg").
		Stage("m", ls.fgMap).
		Stage("r", ls.fgReduce).
		Edge("m", "r", dag.AllToAll).
		Build()
	if err != nil {
		return nil, err
	}
	fg, err := profile.New(fgJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(30*time.Second, 90*time.Second),
			Queue: stats.Exponential{MeanValue: time.Second}},
		{Exec: stats.LognormalFromMedian(time.Minute, 3*time.Minute)},
	})
	if err != nil {
		return nil, err
	}
	return &cosmosEngine{
		eng: cluster.NewEngine(),
		cfg: cluster.Config{
			Machines:        ls.machines,
			SlotsPerMachine: ls.slots,
			MachineMTBF:     ls.mtbf,
			MachineRecovery: stats.Point{V: 2 * time.Minute},
			Seed:            seed,
		},
		jobs: []cluster.JobConfig{
			{Profile: bg, Guarantee: ls.bgGuar, Tracked: true, NoTrace: true},
			{Profile: bg2, Guarantee: ls.bg2Guar, Weight: 2, Tracked: true, NoTrace: true,
				Start: 2 * time.Minute},
			{Profile: fg, Guarantee: ls.fgGuar, Deadline: 4 * time.Hour,
				Tracked: true, NoTrace: true, Start: time.Minute},
		},
	}, nil
}

func (w *cosmosEngine) replay(c *counters) error {
	w.last, w.done = w.last[:0], w.done[:0]
	cl, err := w.eng.Reset(w.cfg)
	if err != nil {
		return err
	}
	hs := make([]*cluster.Handle, len(w.jobs))
	for i, jc := range w.jobs {
		if c != nil {
			// The jobs keep no trace, so the live task feed counts attempts.
			jc.OnTaskEvent = func(trace.TaskEvent) { c.taskAttempts++ }
		}
		if hs[i], err = cl.Submit(jc); err != nil {
			return err
		}
	}
	if err := cl.Run(); err != nil {
		return err
	}
	// Handles die at the next Reset; keep what verify needs now.
	for _, h := range hs {
		w.last = append(w.last, h.Result())
		w.done = append(w.done, h.Done())
	}
	return nil
}

func (w *cosmosEngine) verify(c *counters) (result, error) {
	r := result{slos: len(w.last)}
	r.digest = digestOf(func(h hash.Hash) {
		for _, res := range w.last {
			fmt.Fprintf(h, "%+v\n", res)
		}
	})
	if len(w.last) != len(w.jobs) {
		return r, fmt.Errorf("cosmos-engine: %d job results, want %d", len(w.last), len(w.jobs))
	}
	for i, res := range w.last {
		if !w.done[i] || res.Completion <= 0 {
			return r, fmt.Errorf("cosmos-engine: job %s did not complete", res.Name)
		}
		if res.Met {
			r.met++
		}
		if c != nil {
			c.evictions += res.Evictions
			c.spareFracSum += res.SpareTaskFraction
			c.spareJobs++
		}
	}
	return r, nil
}

// --- slo-guarded-drift ---

// sloEnvSeed is the master seed of the experiments environment: the paper's
// jobs A–G, their training runs and offline models are those the
// experiments command builds by default. The benchmark seed picks the days
// each job runs on (cluster failures, background load, surges), not the
// jobs.
const sloEnvSeed = 1

// sloDays is how many days each job runs on per replay. How often the guard
// re-profiles a job, and so what a replay costs, varies from day to day;
// two days per job even that out between seeds better than one (README.md
// has the runs) and still leave about ten timed replays in a 40-s run.
const sloDays = 2

type sloGuardedDrift struct {
	env  *experiments.Env
	exec *experiments.Exec
	runs []experiments.SLORun
	last []experiments.Outcome
}

func setupSLOGuardedDrift(seed uint64, sz size, b *builds) (instance, error) {
	env := experiments.NewEnv(sloEnvSeed)
	env.Parallelism, env.GridParallel = 1, 1
	jobs := []string{"A", "B", "C", "D", "E", "F", "G"}
	if sz == tiny {
		jobs = jobs[:1]
	}
	w := &sloGuardedDrift{env: env, exec: experiments.NewExec()}
	for _, job := range jobs {
		if err := b.time(func() error {
			_, err := env.Runtime(job, core.TotalWorkWithQ)
			return err
		}); err != nil {
			return nil, fmt.Errorf("model for job %s: %w", job, err)
		}
		short, _, err := env.Deadlines(job)
		if err != nil {
			return nil, err
		}
		var drift []cluster.StageDrift
		for _, sc := range experiments.DefaultRobustnessScenarios(short) {
			if sc.Name == "drift-2x" {
				drift = sc.Drifts
			}
		}
		if drift == nil {
			return nil, fmt.Errorf("no drift-2x robustness scenario")
		}
		for d := 0; d < sloDays; d++ {
			w.runs = append(w.runs, experiments.SLORun{
				Job:        job,
				Deadline:   short,
				Policy:     experiments.PolicyJockey,
				Guarded:    true,
				Seed:       stats.DeriveSeed(seed, "slo-guarded-drift", job, fmt.Sprint(d)),
				InputScale: 1,
				Drifts:     drift,
			})
		}
	}
	return w, nil
}

func (w *sloGuardedDrift) replay(c *counters) error {
	w.last = w.last[:0]
	for _, r := range w.runs {
		if c != nil {
			r.OnDecision = func(time.Duration, control.Decision) { c.decisions++ }
		}
		o, err := w.env.RunExec(w.exec, r)
		if err != nil {
			return fmt.Errorf("job %s: %w", r.Job, err)
		}
		w.last = append(w.last, o)
	}
	return nil
}

func (w *sloGuardedDrift) verify(c *counters) (result, error) {
	r := result{slos: len(w.last)}
	r.digest = digestOf(func(h hash.Hash) {
		for _, o := range w.last {
			shallow := o
			shallow.Trace = nil
			fmt.Fprintf(h, "%+v\n", shallow)
			if o.Trace != nil {
				fmt.Fprintf(h, "%+v\n", *o.Trace)
			}
		}
	})
	if len(w.last) != len(w.runs) {
		return r, fmt.Errorf("slo-guarded-drift: %d outcomes, want %d", len(w.last), len(w.runs))
	}
	for i, o := range w.last {
		if o.Trace == nil || o.Completion <= 0 {
			return r, fmt.Errorf("slo-guarded-drift: run %d (job %s) did not complete", i, w.runs[i].Job)
		}
		if o.Met {
			r.met++
		}
		r.aboveOracle += o.AboveOracle / float64(len(w.last))
		if c != nil {
			for _, ev := range o.GuardEvents {
				if ev.Kind == control.GuardEventReprofile {
					c.reprofiles++
				}
			}
			c.taskAttempts += len(o.Trace.Events)
			c.evictions += o.Evictions
			c.spareFracSum += o.SpareTaskFraction
			c.spareJobs++
		}
	}
	return r, nil
}
