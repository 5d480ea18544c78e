package sim

import (
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/invariant"
)

// The debug-build audit of the flat task core (run under -tags
// invariantdebug; compiled out of default builds by the invariant.Debug
// constant). The compressed consumer rows and the global task ids are
// derived once per plan, so a wrong offset would silently ready the wrong
// tasks in every later run; these checks re-derive them independently.

type taskRef struct{ stage, task int }

// checkShape rebuilds the consumer adjacency the direct way — one list per
// producer task, appended while walking each stage's input edges through
// dag.DepRange — and requires the compressed rows to list the same
// consumers in the same order, and baseDeps to count the same edges.
func (r *Runner) checkShape() {
	job := r.job
	consumers := make([][][]taskRef, job.NumStages())
	deps := make([][]int, job.NumStages())
	for s := range consumers {
		consumers[s] = make([][]taskRef, job.Stages[s].Tasks)
		deps[s] = make([]int, job.Stages[s].Tasks)
	}
	for s := 0; s < job.NumStages(); s++ {
		for _, edge := range job.Inputs(s) {
			for task := 0; task < job.Stages[s].Tasks; task++ {
				if edge.Kind == dag.AllToAll {
					deps[s][task]++
					continue
				}
				lo, hi := job.DepRange(edge, task)
				deps[s][task] += hi - lo
				for i := lo; i < hi; i++ {
					consumers[edge.From][i] = append(consumers[edge.From][i], taskRef{s, task})
				}
			}
		}
	}
	id := int32(0)
	for s := range consumers {
		invariant.Assertf(r.stageOff[s] == id, "sim: plan %q stage %d starts at task id %d, want %d",
			job.Name, s, r.stageOff[s], id)
		for task, want := range consumers[s] {
			invariant.Assertf(r.stageOf[id] == int32(s), "sim: plan %q task id %d maps to stage %d, want %d",
				job.Name, id, r.stageOf[id], s)
			got := r.consTo[r.consOff[id]:r.consOff[id+1]]
			invariant.Assertf(len(got) == len(want), "sim: plan %q stage %d task %d has %d consumers, want %d",
				job.Name, s, task, len(got), len(want))
			for k, c := range want {
				invariant.Assertf(got[k] == r.stageOff[c.stage]+int32(c.task),
					"sim: plan %q stage %d task %d consumer %d is task id %d, want stage %d task %d",
					job.Name, s, task, k, got[k], c.stage, c.task)
			}
			invariant.Assertf(int(r.baseDeps[id]) == deps[s][task], "sim: plan %q stage %d task %d has %d dependencies, want %d",
				job.Name, s, task, r.baseDeps[id], deps[s][task])
			id++
		}
	}
	invariant.Assertf(int(id) == len(r.stageOf), "sim: plan %q has %d task ids, want %d", job.Name, len(r.stageOf), id)
}

// startIsConsistent reports whether every task the start state marks
// completed also has every dependency met. InitialFracDone pre-completes
// the first tasks of each stage, which a live job's fractions need not
// match: a pre-completed consumer of a task that is not pre-completed
// becomes ready again when that producer ends, runs a second time and
// satisfies its own consumers twice. The engine keeps that behaviour (the
// online predictor's results depend on it); checkDep audits only runs
// that start consistent, where no task can complete twice.
func (r *Runner) startIsConsistent() bool {
	for id, done := range r.done {
		if done && r.remDeps[id] != 0 {
			return false
		}
	}
	return true
}

// checkDep requires task c's unmet-dependency count to be non-negative on
// a run that started consistent: a negative count there means some
// dependency was satisfied twice. The Assertf call sits behind the test so
// the passing case boxes no arguments (TestRunnerSteadyStateAllocs runs in
// debug builds too).
func (r *Runner) checkDep(c int32) {
	if r.consistentStart && r.remDeps[c] < 0 {
		invariant.Assertf(false, "sim: plan %q stage %d task %d has %d unmet dependencies",
			r.job.Name, r.stageOf[c], c-r.stageOff[r.stageOf[c]], r.remDeps[c])
	}
}
