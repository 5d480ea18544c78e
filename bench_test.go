// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact, on reduced run counts — cmd/experiments runs the
// full versions), plus throughput and ablation benchmarks for the design
// choices called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
package jockey_test

import (
	"strconv"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/experiments"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/utility"
	"github.com/jockeysim/jockey/internal/workload"
)

// benchEnv is shared across benchmarks: the expensive per-job model builds
// are cached inside it, so each benchmark measures its experiment's runs.
var benchEnv = experiments.NewEnv(1)

// benchJobs keeps the per-figure benchmarks affordable; cmd/experiments
// uses all seven jobs.
var benchJobs = []string{"B", "E"}

func BenchmarkTable1CoV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := experiments.RecurringVariance(benchEnv, experiments.Table1Config{
			Jobs: benchJobs, RunsPerJob: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(t1.PerJobCoV[0], "cov-job0")
		}
	}
}

func BenchmarkFigure1Dependencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f1, err := experiments.Dependencies(benchEnv, 5000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(f1.MedianGap().Minutes(), "median-gap-min")
		}
	}
}

func BenchmarkTable2JobStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.JobStatistics(benchEnv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3DAGs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f3, err := experiments.StageGraphs(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		if len(f3.DOT) != 7 {
			b.Fatal("missing DOT outputs")
		}
	}
}

func BenchmarkFigure4PolicyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.PolicyComparison(benchEnv, experiments.ComparisonConfig{
			Jobs: benchJobs, SeedsPerCase: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range cmp.Summaries() {
				if s.Policy == experiments.PolicyJockey {
					b.ReportMetric(s.MissedFrac, "jockey-missed")
					b.ReportMetric(s.AboveOracle, "jockey-above-oracle")
				}
			}
		}
	}
}

func BenchmarkFigure5CompletionCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.PolicyComparison(benchEnv, experiments.ComparisonConfig{
			Jobs: benchJobs, SeedsPerCase: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if out := cmp.RenderFig5(); len(out) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

func BenchmarkFigure6Timelapse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f6, err := experiments.Timelapses(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		if len(f6.Cases) != 3 {
			b.Fatal("missing cases")
		}
	}
}

func BenchmarkTable3TrainingVsRuns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TrainingVsActual(benchEnv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7DeadlineChanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f7, err := experiments.DeadlineChanges(benchEnv, benchJobs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			met := 0
			for _, r := range f7.Runs {
				if r.Outcome.Met {
					met++
				}
			}
			b.ReportMetric(float64(met)/float64(len(f7.Runs)), "met-frac")
		}
	}
}

func BenchmarkFigure8PredictionError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f8, err := experiments.PredictionAccuracy(benchEnv, benchJobs, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(f8.AvgSim, "sim-err")
			b.ReportMetric(f8.AvgAmdahl, "amdahl-err")
		}
	}
}

func BenchmarkFigure9IndicatorTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f9, err := experiments.IndicatorTraces(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		if len(f9.Series) != 2 {
			b.Fatal("missing series")
		}
	}
}

func BenchmarkFigure10IndicatorComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f10, err := experiments.IndicatorComparison(benchEnv, []string{"G"})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(f10.Rows[0].AvgDeltaT, "totalworkWithQ-deltaT")
		}
	}
}

func BenchmarkFigure11Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sensitivity(benchEnv, []string{"B"}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12SlackSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SlackSweep(benchEnv, []string{"B"}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13HysteresisSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HysteresisSweep(benchEnv, []string{"B"}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- system throughput benchmarks ---

// BenchmarkSimulatorThroughput measures the offline job simulator on job F
// (6139 vertices); the reported tasks/op quantifies the event engine. The
// one-shot variant pays a fresh engine per run (the compatibility path);
// the reused variant recycles one Runner's arenas across traced runs; the
// completion-only variant is what the model builds actually do — the same
// runs without recording a trace (Runner.RunCompletion). The reused
// variants warm their Runner outside the timer, so allocs/op does not
// depend on -benchtime.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := workload.MustGenerate(mustSpec(b, "F"), 1)
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := sim.Run(sim.Config{Profile: p, Alloc: 50, Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if tr.Completion <= 0 {
				b.Fatal("no completion")
			}
		}
		b.ReportMetric(float64(p.Job.TotalTasks()), "tasks/op")
	})
	b.Run("reused-runner", func(b *testing.B) {
		r := sim.NewRunner()
		if _, err := r.Run(sim.Config{Profile: p, Alloc: 50, Seed: 0}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr, err := r.Run(sim.Config{Profile: p, Alloc: 50, Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if tr.Completion <= 0 {
				b.Fatal("no completion")
			}
		}
		b.ReportMetric(float64(p.Job.TotalTasks()), "tasks/op")
	})
	b.Run("completion-only", func(b *testing.B) {
		r := sim.NewRunner()
		if _, err := r.RunCompletion(sim.Config{Profile: p, Alloc: 50, Seed: 0}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			completion, err := r.RunCompletion(sim.Config{Profile: p, Alloc: 50, Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if completion <= 0 {
				b.Fatal("no completion")
			}
		}
		b.ReportMetric(float64(p.Job.TotalTasks()), "tasks/op")
	})
}

// BenchmarkCPABuild measures the offline model construction for one job —
// the precomputation Jockey amortizes across runs of a recurring job. The
// pN sub-benchmarks vary the worker-pool size; per-cell seeding plus the
// deterministic merge make every variant build the bit-identical table, so
// the ratio between p1 and pN is pure wall-clock speedup (bounded by the
// machine's core count). guard-rebuild is the build a guarded controller
// runs each time it re-profiles a job: the default 16-allocation grid, 8
// runs per allocation, one worker, on job E's training profile. It builds
// the same table every iteration and warms outside the timer, so its
// allocs/op does not depend on -benchtime.
func BenchmarkCPABuild(b *testing.B) {
	p := workload.MustGenerate(mustSpec(b, "E"), 1)
	ind := progress.NewTotalWorkWithQ(p)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run("p"+strconv.Itoa(par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := model.BuildCPA(p, ind, model.CPAConfig{
					Allocs:       []int{5, 10, 20, 40, 80},
					RunsPerAlloc: 5,
					Seed:         uint64(i),
					Parallelism:  par,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("guard-rebuild", func(b *testing.B) {
		train, err := benchEnv.Training("E")
		if err != nil {
			b.Fatal(err)
		}
		tind := progress.NewTotalWorkWithQ(train)
		cfg := model.CPAConfig{
			Allocs:       core.DefaultGrid(100),
			RunsPerAlloc: 8,
			Seed:         1,
			Parallelism:  1,
		}
		if _, err := model.BuildCPA(train, tind, cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := model.BuildCPA(train, tind, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOnlineSim measures one control-tick's worth of online forward
// prediction (every candidate allocation at one state) across worker-pool
// sizes — the §4.4 enhancement's per-decision cost that parallelism must
// amortize for it to be usable inside a 1-minute control period.
func BenchmarkOnlineSim(b *testing.B) {
	p := workload.MustGenerate(mustSpec(b, "B"), 1)
	st := model.State{Elapsed: 10 * time.Minute, FracDone: halfDone(p)}
	u := benchUtility()
	for _, par := range []int{1, 2, 4, 8} {
		b.Run("p"+strconv.Itoa(par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := model.NewOnlineSim(p, 8, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				o.SetParallelism(par)
				for _, a := range []int{5, 10, 20, 40, 80} {
					o.ExpectedUtility(st, a, 1.2, u)
				}
			}
		})
	}
}

// --- ablation benchmarks (design choices in DESIGN.md §5) ---

// BenchmarkAblationBucketWidth compares C(p, a) progress-bucket widths: too
// few buckets blur early and late progress together; the reported error is
// the relative difference between the model's half-progress prediction and
// the fine-grained reference.
func BenchmarkAblationBucketWidth(b *testing.B) {
	p := workload.MustGenerate(mustSpec(b, "E"), 1)
	ind := progress.NewTotalWorkWithQ(p)
	build := func(buckets int, seed uint64) *model.CPA {
		c, err := model.BuildCPA(p, ind, model.CPAConfig{
			Allocs:       []int{10, 40},
			RunsPerAlloc: 6,
			Buckets:      buckets,
			Seed:         seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	st := model.State{FracDone: halfDone(p)}
	for _, buckets := range []int{10, 100, 400} {
		b.Run(fmtInt(buckets), func(b *testing.B) {
			var last time.Duration
			for i := 0; i < b.N; i++ {
				c := build(buckets, 7)
				last = c.Remaining(st, 40, 0.9)
			}
			b.ReportMetric(last.Seconds(), "half-progress-pred-s")
		})
	}
}

// BenchmarkAblationRunsPerAlloc compares how many offline simulations feed
// each allocation: more runs tighten the worst-case estimate.
func BenchmarkAblationRunsPerAlloc(b *testing.B) {
	p := workload.MustGenerate(mustSpec(b, "B"), 1)
	ind := progress.NewTotalWorkWithQ(p)
	for _, runs := range []int{2, 8, 32} {
		b.Run(fmtInt(runs), func(b *testing.B) {
			var worst time.Duration
			for i := 0; i < b.N; i++ {
				c, err := model.BuildCPA(p, ind, model.CPAConfig{
					Allocs:       []int{40},
					RunsPerAlloc: runs,
					Seed:         9,
				})
				if err != nil {
					b.Fatal(err)
				}
				worst = c.Remaining(model.State{FracDone: make([]float64, p.Job.NumStages())}, 40, 1.0)
			}
			b.ReportMetric(worst.Seconds(), "worst-case-pred-s")
		})
	}
}

func mustSpec(b *testing.B, name string) workload.JobSpec {
	b.Helper()
	s, err := workload.Spec(name)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// halfDone builds a stage-fraction vector with every stage half complete.
func halfDone(p *profile.Profile) []float64 {
	fs := make([]float64, p.Job.NumStages())
	for i := range fs {
		fs[i] = 0.5
	}
	return fs
}

func fmtInt(v int) string { return "n" + strconv.Itoa(v) }

// BenchmarkAblationOnlineSim compares the per-decision cost of the
// precomputed C(p,a) table against online forward simulation (§4.4's
// proposed enhancement): the table answers in microseconds, the online
// simulator pays a fresh simulation per candidate allocation.
func BenchmarkAblationOnlineSim(b *testing.B) {
	p := workload.MustGenerate(mustSpec(b, "B"), 1)
	st := model.State{Elapsed: 10 * time.Minute, FracDone: halfDone(p)}
	u := benchUtility()
	b.Run("cpa-table", func(b *testing.B) {
		cpa, err := model.BuildCPA(p, progress.NewTotalWorkWithQ(p), model.CPAConfig{
			Allocs: []int{5, 10, 20, 40, 80}, RunsPerAlloc: 6, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range cpa.Allocs() {
				cpa.ExpectedUtility(st, a, 1.2, u)
			}
		}
	})
	b.Run("online-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o, err := model.NewOnlineSim(p, 3, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range []int{5, 10, 20, 40, 80} {
				o.ExpectedUtility(st, a, 1.2, u)
			}
		}
	})
}

// BenchmarkAblationSpeculation measures straggler mitigation (§4.4's
// "aggressiveness of mitigating stragglers" knob) on a straggler-heavy job:
// the reported completion shows duplicates trimming the tail.
func BenchmarkAblationSpeculation(b *testing.B) {
	job := daggen(b)
	p, err := profile.New(job, []profile.StageProfile{
		{Exec: stats.Truncated{Base: stats.Lognormal{Mu: 2.3, Sigma: 1.6}, Max: 10 * time.Minute}},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, th := range []float64{0, 2} {
		name := "off"
		if th > 0 {
			name = "threshold2x"
		}
		b.Run(name, func(b *testing.B) {
			var last time.Duration
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Config{Machines: 10, SlotsPerMachine: 2, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				h, err := c.Submit(cluster.JobConfig{
					Profile: p, Guarantee: 10, Deadline: 2 * time.Hour,
					Tracked: true, SpeculativeThreshold: th,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
				last = h.Result().Completion
			}
			b.ReportMetric(last.Minutes(), "completion-min")
		})
	}
}

func daggen(b *testing.B) *dag.Job {
	b.Helper()
	return dag.NewBuilder("strag").Stage("work", 60).MustBuild()
}

func benchUtility() utility.Fn { return utility.Deadline(40 * time.Minute) }
