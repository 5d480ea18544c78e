package cluster

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
)

// passDiff diffs the incremental scheduling pass against the retired
// reference pass (refpass_test.go) on one scenario. Replay the scenario
// once with referenceHooks, which records every dispatch, then once with
// incrementalHooks, which requires the same dispatches in the same order —
// job, stage, task, machine, token class, evictions included — and holds
// every pass to the per-pass work guard; done then checks the two logs
// had the same length. Callers compare the replays' outputs themselves.
type passDiff struct {
	t      testing.TB
	name   string
	guard  bool // enforce the per-pass work bound
	want   []dispatchRec
	n      int
	failed bool
	work   passWork // incremental replay totals
}

// passWorkFactor bounds one pass's job visits: each dirty job is visited
// once; the hungry walk visits at most one job per guaranteed dispatch plus
// the one that ends the pass; a spare round compares one top per weight
// class. With at most three weight classes (the fleet's {1, 2, 4}), visits
// ≤ dirty + (dispatched + 1) + 3·dispatched ≤ 4·(dirty + dispatched + 1).
// The duplicate dispatcher's live walk is outside the bound (speculating
// scenarios run without the guard), as is youngestSpare's, which is counted
// apart in passWork.evictionScans.
const passWorkFactor = 4

func newPassDiff(t testing.TB, name string, guard bool) *passDiff {
	return &passDiff{t: t, name: name, guard: guard}
}

func (d *passDiff) referenceHooks() *testHooks {
	return &testHooks{
		reference: newRefPass().run,
		dispatch:  func(r dispatchRec) { d.want = append(d.want, r) },
	}
}

func (d *passDiff) incrementalHooks() *testHooks {
	return &testHooks{dispatch: d.check, afterPass: d.checkWork}
}

func (d *passDiff) check(r dispatchRec) {
	if !d.failed && (d.n >= len(d.want) || d.want[d.n] != r) {
		d.failed = true
		want := "none (reference log ended)"
		if d.n < len(d.want) {
			want = fmt.Sprintf("%+v", d.want[d.n])
		}
		d.t.Errorf("%s: dispatch %d diverges: incremental %+v, reference %s", d.name, d.n, r, want)
	}
	d.n++
}

func (d *passDiff) checkWork(w passWork) {
	d.work.passes += w.passes
	d.work.dirty += w.dirty
	d.work.visits += w.visits
	d.work.dispatched += w.dispatched
	d.work.evictionScans += w.evictionScans
	if d.guard && w.visits > passWorkFactor*(w.dirty+w.dispatched+1) {
		d.t.Errorf("%s: pass %d visited %d jobs for %d dirty and %d dispatched, over the %dx bound",
			d.name, d.work.passes, w.visits, w.dirty, w.dispatched, passWorkFactor)
	}
}

func (d *passDiff) done() {
	if !d.failed && d.n != len(d.want) {
		d.t.Errorf("%s: incremental pass made %d dispatches, reference %d", d.name, d.n, len(d.want))
	}
	if d.work.passes > 0 {
		d.t.Logf("%s: %d dispatches over %d passes; %.2f jobs visited per pass, %d eviction scans",
			d.name, d.n, d.work.passes, float64(d.work.visits)/float64(d.work.passes), d.work.evictionScans)
	}
}

// renderRun prints everything a replay produced: each job's result with its
// full trace, the cluster clock, and utilization.
func renderRun(c *Cluster, hs []*Handle) string {
	var b strings.Builder
	for _, h := range hs {
		r := h.Result()
		tr := r.Trace
		r.Trace = nil
		fmt.Fprintf(&b, "%+v\n", r)
		if tr != nil {
			fmt.Fprintf(&b, "%+v\n", *tr)
		}
	}
	fmt.Fprintf(&b, "now=%v util=%.17g\n", c.Now(), c.Utilization())
	return b.String()
}

// diffScenario replays a scenario under both passes. replay builds the
// cluster, installs the given hooks before its first event, runs it, and
// renders the output.
func diffScenario(t *testing.T, name string, guard bool, replay func(h *testHooks) string) {
	t.Helper()
	d := newPassDiff(t, name, guard)
	ref := replay(d.referenceHooks())
	got := replay(d.incrementalHooks())
	d.done()
	if got != ref {
		t.Errorf("%s: incremental replay output differs from the reference pass:\n got: %.400s\nwant: %.400s", name, got, ref)
	}
}

// runScenario installs the hooks, runs the cluster and renders the handles.
func runScenario(t *testing.T, c *Cluster, h *testHooks, hs ...*Handle) string {
	t.Helper()
	c.hooks = h
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return renderRun(c, hs)
}

// TestReferencePassMidScale diffs the passes on the mid-scale replay: 1k
// machines, ~20k concurrent tasks, weights 1 and 2, machine failures.
func TestReferencePassMidScale(t *testing.T) {
	if testing.Short() {
		t.Skip("two mid-size replays; skipped in -short")
	}
	p := newLargeProfiles(t, midScale)
	diffScenario(t, "mid-scale", true, func(h *testHooks) string {
		c, err := New(midScale.config())
		if err != nil {
			t.Fatal(err)
		}
		c.hooks = h
		res := p.run(t, c, midScale)
		return fmt.Sprintf("%+v util=%.17g", res, c.Utilization())
	})
}

// TestReferencePassConservation diffs the passes on
// TestConservationProperty's randomized configurations.
func TestReferencePassConservation(t *testing.T) {
	f := func(seed uint64, rawTasks uint8, rawG uint8) bool {
		name := fmt.Sprintf("conservation(%d,%d,%d)", seed, rawTasks, rawG)
		diffScenario(t, name, true, func(h *testHooks) string {
			c, job, _, err := conservationScenario(seed, rawTasks, rawG)
			if err != nil {
				t.Fatal(err)
			}
			return runScenario(t, c, h, job)
		})
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestReferencePassCombinedFaults diffs the passes under every disruption
// at once — failures, outages, contention, drift, speculation, deadline
// changes. Speculation walks the live jobs for duplicates, so this one
// runs without the work guard.
func TestReferencePassCombinedFaults(t *testing.T) {
	diffScenario(t, "combined-faults", false, func(h *testHooks) string {
		c, job := combinedFaultScenario(t)
		return runScenario(t, c, h, job)
	})
}

// randomScenario builds a small, crowded cluster from a seed: three to six
// jobs with mixed guarantees, weights, tracking, NoSpare and speculation,
// high task-failure rates, machine failures, a contention window and
// staggered arrivals. Crowding plus speculation is what exercises the
// pass's rarest path: evicting a duplicate whose primary already died
// requeues its task, so the victim turns hungry mid-walk.
func randomScenario(t testing.TB, seed uint64) (*Cluster, []*Handle) {
	t.Helper()
	rng := stats.NewRNG(stats.DeriveSeed(seed, "pass-diff-scenario"))
	machines := 3 + rng.IntN(5)
	c, err := New(Config{
		Machines:        machines,
		SlotsPerMachine: 2 + rng.IntN(3),
		MachineMTBF:     time.Duration(2+rng.IntN(6)) * time.Minute,
		MachineRecovery: stats.Point{V: time.Minute},
		Seed:            seed,
		Contention: []ContentionWindow{{
			From: time.Duration(rng.IntN(120)) * time.Second,
			To:   time.Duration(150+rng.IntN(240)) * time.Second,
			Frac: 0.25 + 0.5*rng.Float64(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var hs []*Handle
	for j, n := 0, 3+rng.IntN(4); j < n; j++ {
		job := dag.NewBuilder(fmt.Sprintf("r%d", j)).
			Stage("map", 8+rng.IntN(40)).
			Stage("reduce", 1+rng.IntN(6)).
			Edge("map", "reduce", dag.AllToAll).
			MustBuild()
		p := profile.MustNew(job, []profile.StageProfile{
			{Exec: stats.LognormalFromMedian(5*time.Second, 40*time.Second),
				Queue: stats.Exponential{MeanValue: time.Second}, FailureProb: 0.3 * rng.Float64()},
			{Exec: stats.LognormalFromMedian(8*time.Second, 30*time.Second), FailureProb: 0.1},
		})
		cfg := JobConfig{
			Profile:   p,
			Guarantee: 1 + rng.IntN(machines*2),
			Weight:    1 << rng.IntN(3),
			Tracked:   j == 0 || rng.IntN(2) == 0,
			NoSpare:   rng.IntN(5) == 0,
			Start:     time.Duration(rng.IntN(90)) * time.Second,
		}
		if rng.IntN(2) == 0 {
			cfg.SpeculativeThreshold = 1 + rng.Float64()
		}
		hs = append(hs, mustSubmit(t, c, cfg))
	}
	return c, hs
}

func mustSubmit(t testing.TB, c *Cluster, cfg JobConfig) *Handle {
	t.Helper()
	h, err := c.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestReferencePassRandomized diffs the passes on randomScenario over a
// fixed seed range. The full range reaches the duplicate-victim path (a
// walk that revisits lower-ranked jobs diverges first at seed 2230); -short
// runs a prefix.
func TestReferencePassRandomized(t *testing.T) {
	seeds := uint64(2500)
	if testing.Short() {
		seeds = 200
	}
	for seed := uint64(0); seed < seeds; seed++ {
		diffScenario(t, fmt.Sprintf("random(%d)", seed), false, func(h *testHooks) string {
			c, hs := randomScenario(t, seed)
			return runScenario(t, c, h, hs...)
		})
		if t.Failed() {
			return
		}
	}
}
