package cluster

import (
	"fmt"
	"slices"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/eventq"
	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/utility"
)

type evKind int

const (
	evArrival evKind = iota
	evTaskEnd
	evControlTick
	evDeadlineChange
	evMachineFail
	evMachineRecover
	evJobSample
	evSpecTick
	evStageDrift
	evRackOutage
	evContention
	evEpoch
)

type event struct {
	kind    evKind
	job     int
	stage   int
	task    int
	attempt int
	failed  bool
	dup     bool // the attempt is a speculative duplicate
	machine int
	change  int // index into DeadlineChanges, Drifts, or RackOutages
}

// Run processes events until every tracked job has completed and every Hold
// has been released (or the event queue drains, or MaxSimTime is exceeded,
// which returns an error).
func (c *Cluster) Run() error {
	for c.tracked+c.holds > 0 {
		if err := c.step(); err != nil {
			return err
		}
	}
	return nil
}

// step processes the next event.
func (c *Cluster) step() error {
	at, ev, ok := c.q.Pop()
	if !ok {
		return fmt.Errorf("cluster: event queue drained with %d tracked jobs unfinished and %d holds open (%s)",
			c.tracked, c.holds, c.unfinishedTracked())
	}
	if at > c.cfg.MaxSimTime {
		return fmt.Errorf("cluster: exceeded max simulated time %v with %d tracked jobs unfinished (%s)",
			c.cfg.MaxSimTime, c.tracked, c.unfinishedTracked())
	}
	c.accrueUtil(at)
	c.now = at
	switch ev.kind {
	case evArrival:
		c.handleArrival(ev.job)
	case evTaskEnd:
		c.handleTaskEnd(ev)
	case evControlTick:
		c.handleControlTick(ev.job)
	case evDeadlineChange:
		c.handleDeadlineChange(ev)
	case evMachineFail:
		c.handleMachineFail()
	case evMachineRecover:
		c.handleMachineRecover(ev.machine)
	case evJobSample:
		c.handleJobSample(ev.job)
	case evSpecTick:
		c.handleSpecTick(ev.job)
	case evStageDrift:
		c.handleStageDrift(ev)
	case evRackOutage:
		c.handleRackOutage(ev.change)
	case evContention:
		c.reschedule() // effective guarantees changed at this boundary
	case evEpoch:
		c.handleEpoch()
	}
	return nil
}

// handleEpoch runs the arbiter hook, keeps the epoch chain alive while the
// hook asks for it, and performs the scheduling pass that puts any guarantee
// changes (and same-time submissions) into effect.
func (c *Cluster) handleEpoch() {
	if c.cfg.OnEpoch == nil {
		return
	}
	if c.cfg.OnEpoch(c.now) {
		c.q.Push(c.now+c.cfg.EpochPeriod, event{kind: evEpoch})
	}
	c.reschedule()
}

// unfinishedTracked names the tracked jobs that have not completed, for
// debuggable failure messages.
func (c *Cluster) unfinishedTracked() string {
	names := ""
	for _, jr := range c.jobs {
		if jr.cfg.Tracked && !jr.completed {
			if names != "" {
				names += ", "
			}
			names += jr.job.Name
		}
	}
	return names
}

// accrueUtil folds the interval since the previous event into the
// utilization integral. The counts are maintained incrementally, so this is
// O(1) per event where it once scanned every job and machine.
//
//jockey:hotpath
func (c *Cluster) accrueUtil(now time.Duration) {
	dt := now - c.lastUtilTime
	if dt <= 0 {
		return
	}
	sec := dt.Seconds()
	c.busySecs += float64(c.totalRunning) * sec
	c.availSecs += float64(c.upCap) * sec
	c.lastUtilTime = now
}

func (c *Cluster) handleArrival(id int) {
	jr := c.jobs[id]
	jr.arrived = true
	jr.start = c.now
	jr.lastAllocAt = c.now
	c.liveAdd(jr)
	c.touch(jr)
	if jr.cfg.Tracked && !jr.cfg.NoTrace {
		// Traces outlive the run (results retain them), so they are always
		// freshly allocated, never pooled.
		jr.result.Trace = trace.New(jr.job.Name, jr.job.NumStages())
	}
	for s := 0; s < jr.job.NumStages(); s++ {
		for task := 0; task < jr.job.Stages[s].Tasks; task++ {
			if jr.remDeps[s][task] == 0 {
				jr.markReady(c.now, s, task)
			}
		}
	}
	if jr.cfg.Policy != nil {
		c.controlDecision(jr)
		c.q.Push(c.now+jr.cfg.ControlPeriod, event{kind: evControlTick, job: id})
	}
	for i, dc := range jr.cfg.DeadlineChanges {
		c.q.Push(jr.start+dc.At, event{kind: evDeadlineChange, job: id, change: i})
	}
	if jr.cfg.OnSample != nil {
		if jr.cfg.SamplePeriod <= 0 {
			jr.cfg.SamplePeriod = time.Minute
		}
		c.q.Push(c.now+jr.cfg.SamplePeriod, event{kind: evJobSample, job: id})
	}
	if jr.cfg.SpeculativeThreshold > 0 {
		c.specLive++
		c.q.Push(c.now+specTickPeriod, event{kind: evSpecTick, job: id})
	}
	for i, d := range jr.cfg.Drifts {
		if d.At == 0 {
			// A drift at the very start must cover the arrival dispatch too.
			c.applyDrift(jr, i)
			continue
		}
		c.q.Push(jr.start+d.At, event{kind: evStageDrift, job: id, change: i})
	}
	c.reschedule()
}

// specTickPeriod is how often speculation-enabled jobs re-check for
// stragglers even when no other event fires (the tail of a job is exactly
// when the event queue goes quiet).
const specTickPeriod = 15 * time.Second

//jockey:hotpath
func (c *Cluster) handleSpecTick(id int) {
	jr := c.jobs[id]
	// Stop the tick chain the moment the job can no longer speculate: a
	// completed (or unspeculated) job must not keep the event queue alive.
	if jr.completed || jr.tasksLeft == 0 || jr.cfg.SpeculativeThreshold <= 0 {
		return
	}
	c.q.Push(c.now+specTickPeriod, event{kind: evSpecTick, job: id})
	c.reschedule()
}

func (c *Cluster) handleStageDrift(ev event) {
	jr := c.jobs[ev.job]
	if jr.completed {
		return
	}
	c.applyDrift(jr, ev.change)
}

// applyDrift folds one StageDrift into the job's runtime factors.
// Already-running attempts keep their sampled durations; only attempts
// dispatched from now on see the drift.
//
//jockey:hotpath
func (c *Cluster) applyDrift(jr *jobRun, idx int) {
	d := jr.cfg.Drifts[idx]
	if d.Stage < 0 {
		for s := range jr.driftFactor {
			jr.driftFactor[s] *= d.Factor
		}
	} else {
		jr.driftFactor[d.Stage] *= d.Factor
	}
}

func (c *Cluster) handleRackOutage(idx int) {
	r := c.cfg.RackOutages[idx]
	until := c.now + r.Duration
	for mi := r.FirstMachine; mi < r.FirstMachine+r.Machines; mi++ {
		if c.upBits.get(mi) {
			c.killMachine(mi)
		}
		// An already-down machine (MTBF failure or overlapping rack) just has
		// its downtime extended; its earlier recover event goes stale.
		if until > c.mDown[mi] {
			c.mDown[mi] = until
			c.q.Push(until, event{kind: evMachineRecover, machine: mi})
		}
	}
	c.reschedule()
}

// contentionFrac returns the guarantee-scaling factor in force now (1 when
// no contention window is open; overlapping windows take the tightest). The
// scheduling pass reads it once and caches it in c.frac.
//
//jockey:hotpath
func (c *Cluster) contentionFrac() float64 {
	f := 1.0
	for _, w := range c.cfg.Contention {
		if c.now >= w.From && c.now < w.To && w.Frac < f {
			f = w.Frac
		}
	}
	return f
}

// effectiveGuarantee returns how many guaranteed tokens the scheduler
// actually honors for the job in the current pass (c.frac is the pass's
// contention factor). Allocation accounting still charges the nominal
// guarantee: during contention the job pays for a promise the cluster
// breaks.
//
//jockey:hotpath
func (c *Cluster) effectiveGuarantee(jr *jobRun) int {
	if c.frac >= 1 {
		return jr.guarantee
	}
	return int(float64(jr.guarantee) * c.frac)
}

func (c *Cluster) handleJobSample(id int) {
	jr := c.jobs[id]
	if jr.completed {
		return
	}
	st := jr.state(c.now)
	st.FracDone = slices.Clone(st.FracDone) // samples may be kept (JobConfig.OnSample)
	jr.cfg.OnSample(c.now-jr.start, st)
	c.q.Push(c.now+jr.cfg.SamplePeriod, event{kind: evJobSample, job: id})
}

func (c *Cluster) handleControlTick(id int) {
	jr := c.jobs[id]
	if jr.completed {
		return
	}
	c.controlDecision(jr)
	c.q.Push(c.now+jr.cfg.ControlPeriod, event{kind: evControlTick, job: id})
	c.reschedule()
}

func (c *Cluster) controlDecision(jr *jobRun) {
	st := jr.state(c.now)
	d := jr.cfg.Policy.Decide(st)
	jr.accrueAlloc(c.now)
	jr.setGuarantee(c.now, d.Granted)
	c.touch(jr)
	if jr.cfg.OnDecision != nil {
		jr.cfg.OnDecision(c.now-jr.start, d)
	}
	if jr.result.Trace != nil {
		oracle := model.Oracle(jr.p.TotalWork(), jr.deadline)
		jr.result.Trace.AddAlloc(trace.AllocPoint{
			T:         c.now - jr.start,
			Raw:       d.Raw,
			Granted:   d.Granted,
			Running:   jr.liveRunning,
			Oracle:    oracle,
			Progress:  d.Progress,
			Predicted: d.Predicted,
			Mode:      d.Mode,
			Deviation: d.Deviation,
		})
	}
}

func (c *Cluster) handleDeadlineChange(ev event) {
	jr := c.jobs[ev.job]
	if jr.completed {
		return
	}
	dc := jr.cfg.DeadlineChanges[ev.change]
	jr.deadline = dc.Deadline
	if jr.cfg.Policy != nil {
		jr.cfg.Policy.ChangeUtility(utility.Deadline(dc.Deadline))
		// React immediately rather than waiting for the next tick.
		c.controlDecision(jr)
	}
	c.reschedule()
}

func (c *Cluster) handleTaskEnd(ev event) {
	jr := c.jobs[ev.job]
	st := &c.store
	var s int32
	if ev.dup {
		s = jr.dupSlot[ev.stage][ev.task]
	} else {
		s = jr.slot[ev.stage][ev.task]
	}
	if s < 0 || int(st.attempt[s]) != ev.attempt {
		return // stale event: the attempt was evicted, killed, or outraced
	}
	c.touch(jr)
	jr.accrueAlloc(c.now)
	machine := int(st.machine[s])
	spawnedGuar := st.flags[s]&flagSpawnGuar != 0
	c.detach(jr, s)
	c.recordAttempt(jr, s, c.now, ev.failed)
	// The other live copy of the task, if any (the duplicate when the
	// primary just ended, or vice versa).
	var sibling int32
	if ev.dup {
		sibling = jr.slot[ev.stage][ev.task]
	} else {
		sibling = jr.dupSlot[ev.stage][ev.task]
	}
	if ev.failed {
		st.release(s)
		if sibling >= 0 {
			// The other copy carries on; nothing to requeue.
			c.reschedule()
			return
		}
		jr.attempts[ev.stage][ev.task]++
		jr.markReady(c.now, ev.stage, ev.task)
		c.reschedule()
		return
	}
	if sibling >= 0 {
		// This copy won the race: cancel the loser, discarding its work.
		c.cancelCopy(jr, sibling)
	}
	if spawnedGuar {
		jr.guarDone++
	} else {
		jr.spareDone++
	}
	if len(jr.job.Inputs(ev.stage)) == 0 {
		jr.rootDone++
		for _, mi := range c.replicaMachines(jr, ev.stage, ev.task) {
			if mi == machine {
				jr.localDone++
				break
			}
		}
	}
	st.release(s)
	jr.done[ev.stage][ev.task] = true
	jr.doneCount[ev.stage]++
	jr.tasksLeft--
	for _, cons := range jr.consumers[ev.stage][ev.task] {
		jr.remDeps[cons.stage][cons.task]--
		if jr.remDeps[cons.stage][cons.task] == 0 {
			jr.markReady(c.now, cons.stage, cons.task)
		}
	}
	if jr.doneCount[ev.stage] == jr.job.Stages[ev.stage].Tasks {
		for _, edge := range jr.job.Outputs(ev.stage) {
			if edge.Kind != dag.AllToAll {
				continue
			}
			for t := 0; t < jr.job.Stages[edge.To].Tasks; t++ {
				jr.remDeps[edge.To][t]--
				if jr.remDeps[edge.To][t] == 0 {
					jr.markReady(c.now, edge.To, t)
				}
			}
		}
	}
	if jr.tasksLeft == 0 {
		c.completeJob(jr)
	}
	c.reschedule()
}

// recordAttempt emits the trace/callback record for an attempt that just
// ended. The slot is still readable (detached but not yet released).
func (c *Cluster) recordAttempt(jr *jobRun, s int32, ended time.Duration, failed bool) {
	if jr.result.Trace == nil && jr.cfg.OnTaskEvent == nil {
		return
	}
	st := &c.store
	started := st.execStart[s]
	if started > ended {
		started = ended // killed during its init delay
	}
	stage, task := int(st.stage[s]), int(st.task[s])
	e := trace.TaskEvent{
		Stage:      stage,
		Task:       task,
		Attempt:    int(st.attempt[s]),
		Queued:     jr.queuedAt[stage][task] - jr.start,
		Dispatched: st.startedAt[s] - jr.start,
		Started:    started - jr.start,
		Ended:      ended - jr.start,
		Failed:     failed,
	}
	if jr.result.Trace != nil {
		jr.result.Trace.AddTask(e)
	}
	if jr.cfg.OnTaskEvent != nil {
		jr.cfg.OnTaskEvent(e)
	}
}

// liveAdd inserts an arriving job into the live index, keeping job-id order
// (arrival events can fire out of submission order when Start times differ).
func (c *Cluster) liveAdd(jr *jobRun) {
	c.live = append(c.live, jr)
	for i := len(c.live) - 1; i > 0 && c.live[i-1].id > jr.id; i-- {
		c.live[i], c.live[i-1] = c.live[i-1], c.live[i]
	}
}

// liveRemove drops a completed job from the live index. O(live), once per
// job lifetime.
func (c *Cluster) liveRemove(jr *jobRun) {
	for i, other := range c.live {
		if other == jr {
			c.live = append(c.live[:i], c.live[i+1:]...)
			return
		}
	}
}

func (c *Cluster) completeJob(jr *jobRun) {
	jr.accrueAlloc(c.now)
	jr.completed = true
	c.liveRemove(jr)
	jr.setGuarantee(c.now, 0)
	c.touch(jr) // the next pass drops it from the hungry and spare sets
	if jr.cfg.SpeculativeThreshold > 0 {
		c.specLive--
	}
	completion := c.now - jr.start
	totalWork := jr.p.TotalWork()
	if jr.result.Trace != nil {
		jr.result.Trace.Completion = completion
		totalWork = jr.result.Trace.TotalWork()
	}
	oracle := model.Oracle(totalWork, jr.deadline)
	done := jr.guarDone + jr.spareDone
	spareFrac := 0.0
	if done > 0 {
		spareFrac = float64(jr.spareDone) / float64(done)
	}
	jr.result = Result{
		Name:               jr.job.Name,
		Start:              jr.start,
		Completion:         completion,
		Deadline:           jr.deadline,
		Met:                jr.deadline == 0 || completion <= jr.deadline,
		Oracle:             oracle,
		AllocTokenSeconds:  jr.allocSecs,
		OracleTokenSeconds: float64(oracle) * jr.deadline.Seconds(),
		UsedTokenSeconds:   jr.usedSecs,
		SpareTaskFraction:  spareFrac,
		Evictions:          jr.evictions,
		Duplicates:         jr.duplicates,
		LocalityFraction:   localityFraction(jr),
		Trace:              jr.result.Trace,
	}
	if jr.cfg.Tracked {
		c.tracked--
	}
}

func (c *Cluster) handleMachineFail() {
	// Pick a random up machine (the k-th set bit of the up set is the k-th
	// up machine in index order, reproducing the retired slice build without
	// its per-failure allocation); if none, just schedule the next failure.
	if c.upCount > 0 {
		mi := c.upBits.selectK(c.rng.IntN(c.upCount))
		c.killMachine(mi)
		rec := c.cfg.MachineRecovery.Sample(c.rng)
		if c.now+rec > c.mDown[mi] {
			c.mDown[mi] = c.now + rec
		}
		c.q.Push(c.now+rec, event{kind: evMachineRecover, machine: mi})
	}
	c.scheduleNextMachineFailure()
	c.reschedule()
}

func (c *Cluster) killMachine(mi int) {
	c.upBits.clear(mi)
	c.availBits.clear(mi)
	c.upCount--
	c.upCap -= c.cfg.SlotsPerMachine
	st := &c.store
	victims := c.scratchSlots[:0]
	for s := c.mHead[mi]; s >= 0; s = st.nextM[s] {
		victims = append(victims, s)
	}
	// Evict in (job, start time, stage, task) order — job submission order,
	// then the per-job total order — matching the retired per-job map walk
	// plus sort. Victim counts are bounded by the machine's slots, so an
	// insertion sort is both allocation-free and fast.
	for i := 1; i < len(victims); i++ {
		for j := i; j > 0 && c.victimLess(victims[j], victims[j-1]); j-- {
			victims[j], victims[j-1] = victims[j-1], victims[j]
		}
	}
	for _, s := range victims {
		c.evictTask(c.jobs[st.job[s]], s)
	}
	c.scratchSlots = victims
	c.mUsed[mi] = 0
}

//jockey:hotpath
func (c *Cluster) victimLess(a, b int32) bool {
	if c.store.job[a] != c.store.job[b] {
		return c.store.job[a] < c.store.job[b]
	}
	return c.store.less(a, b)
}

// detach removes an attempt from every index that tracks it — the slot
// table, its class heaps, the machine task list, the machine's used count,
// and the running totals — leaving the slot readable until released.
//
//jockey:hotpath
func (c *Cluster) detach(jr *jobRun, s int32) {
	st := &c.store
	stage, task := st.stage[s], st.task[s]
	if st.flags[s]&flagDup != 0 {
		jr.dupSlot[stage][task] = -1
		st.maxRemove(&jr.dupHeap, s)
	} else {
		jr.slot[stage][task] = -1
		if st.flags[s]&flagGuar != 0 {
			st.maxRemove(&jr.guarHeap, s)
			jr.guarCount--
		} else {
			st.maxRemove(&jr.spareMax, s)
			st.minRemove(&jr.spareMin, s)
		}
		jr.liveRunning--
		c.totalRunning--
	}
	mi := int(st.machine[s])
	if prev := st.prevM[s]; prev >= 0 {
		st.nextM[prev] = st.nextM[s]
	} else {
		c.mHead[mi] = st.nextM[s]
	}
	if next := st.nextM[s]; next >= 0 {
		st.prevM[next] = st.prevM[s]
	}
	c.mUsed[mi]--
	if c.upBits.get(mi) {
		c.availBits.set(mi) // a slot just freed on an up machine
	}
}

// attachMachine links a freshly dispatched attempt into its machine's task
// list and claims the slot token.
//
//jockey:hotpath
func (c *Cluster) attachMachine(mi int, s int32) {
	st := &c.store
	st.prevM[s] = -1
	st.nextM[s] = c.mHead[mi]
	if head := c.mHead[mi]; head >= 0 {
		st.prevM[head] = s
	}
	c.mHead[mi] = s
	c.mUsed[mi]++
	if int(c.mUsed[mi]) >= c.cfg.SlotsPerMachine {
		c.availBits.clear(mi)
	}
}

// cancelCopy kills the losing copy of a speculated task: its slot frees and
// its work is discarded, but the task is NOT requeued (the winner already
// completed it).
func (c *Cluster) cancelCopy(jr *jobRun, s int32) {
	c.detach(jr, s)
	c.recordAttempt(jr, s, c.now, true)
	c.store.release(s)
}

// evictTask kills a running task attempt: its work is lost and the pending
// end event becomes stale. The task re-queues unless another copy of it is
// still running.
func (c *Cluster) evictTask(jr *jobRun, s int32) {
	jr.accrueAlloc(c.now)
	c.touch(jr)
	st := &c.store
	stage, task := int(st.stage[s]), int(st.task[s])
	c.logDispatch(dispatchEvict, jr, stage, task, int(st.machine[s]))
	jr.evictions++
	if st.flags[s]&flagDup != 0 {
		c.cancelCopy(jr, s)
		if jr.slot[stage][task] < 0 {
			// The duplicate was the only live copy (the primary had already
			// failed or been evicted): requeue the task.
			jr.attempts[stage][task]++
			jr.markReady(c.now, stage, task)
		}
		return
	}
	c.detach(jr, s)
	c.recordAttempt(jr, s, c.now, true)
	st.release(s)
	if jr.dupSlot[stage][task] >= 0 {
		// The duplicate carries on; no requeue.
		return
	}
	jr.attempts[stage][task]++
	jr.markReady(c.now, stage, task)
}

func (c *Cluster) handleMachineRecover(mi int) {
	if c.now < c.mDown[mi] {
		return // stale: an overlapping outage extended this machine's downtime
	}
	if !c.upBits.get(mi) {
		c.upBits.set(mi)
		c.upCount++
		c.upCap += c.cfg.SlotsPerMachine
		if int(c.mUsed[mi]) < c.cfg.SlotsPerMachine {
			c.availBits.set(mi)
		}
	}
	c.reschedule()
}

func (c *Cluster) scheduleNextMachineFailure() {
	mean := c.cfg.MachineMTBF.Seconds() / float64(len(c.mUsed))
	gap := time.Duration(c.rng.ExpFloat64() * mean * float64(time.Second))
	if gap <= 0 {
		gap = time.Second
	}
	c.q.Push(c.now+gap, event{kind: evMachineFail})
}

// replicaMachines returns the machines holding the input partition of a
// root-stage task, derived deterministically from the job and task
// identity (the DFS placement).
func (c *Cluster) replicaMachines(jr *jobRun, stage, task int) []int {
	if len(jr.job.Inputs(stage)) > 0 {
		return nil // only root stages read DFS partitions directly
	}
	n := len(c.mUsed)
	h := stats.DeriveSeedInt(uint64(jr.id)<<32|uint64(stage), task)
	out := c.scratchReplicas[:0]
	stride := 1
	if n > 1 {
		stride = 1 + int((h>>40)%uint64(n-1))
	}
	first := int(h % uint64(n))
	for i := 0; i < c.cfg.Replicas && i < n; i++ {
		out = append(out, (first+i*stride)%n)
	}
	c.scratchReplicas = out
	return out
}

// freeMachineFor returns a machine with a free slot for the given task,
// preferring machines holding the task's input replicas; -1 if the cluster
// is full.
//
//jockey:hotpath
func (c *Cluster) freeMachineFor(jr *jobRun, stage, task int) int {
	for _, mi := range c.replicaMachines(jr, stage, task) {
		if c.availBits.get(mi) {
			return mi
		}
	}
	return c.freeMachine()
}

// freeMachine returns the lowest-indexed machine with a free slot, or -1.
// availBits indexes exactly the up machines with spare slots, so this is a
// bitmap scan instead of the full-cluster walk of earlier engines.
//
//jockey:hotpath
func (c *Cluster) freeMachine() int {
	return c.availBits.first()
}

// reschedule enforces the token-sharing policy: reclassify running tasks,
// satisfy guaranteed demand (evicting spare tasks when necessary), then
// hand out spare capacity round-robin. Every task dispatched by the pass
// buffered its end event; the bulk push at the end amortizes one queue
// restructure over the whole dispatch wave (and assigns the exact insertion
// sequences the per-task pushes would have, since nothing else pushes
// mid-pass).
//
// The pass is incremental (DESIGN.md §14): it reclassifies only the jobs
// touched since the previous pass, walks only the hungry sets, and picks
// spare winners from per-weight heaps, so its cost follows what changed
// rather than how many jobs are live. The retired full-walk pass is kept
// as the reference in refpass_test.go, and tests diff the two dispatch by
// dispatch.
func (c *Cluster) reschedule() {
	if c.hooks != nil {
		c.hookedPass()
	} else {
		c.pass()
	}
	if len(c.endBatch) > 0 {
		c.q.PushBatch(c.endBatch)
		c.endBatch = c.endBatch[:0]
	}
}

func (c *Cluster) pass() {
	c.work.passes++
	c.reclassifyDirty()
	if invariant.Debug {
		c.checkRanks()
		c.checkSets()
	}
	c.dispatchGuaranteed()
	c.dispatchSpare()
	if invariant.Debug {
		c.checkSets()
	}
}

// hookedPass runs the pass a test asked for and reports its work.
func (c *Cluster) hookedPass() {
	if c.hooks.reference != nil {
		c.hooks.reference(c)
		return
	}
	before := c.work
	c.pass()
	if c.hooks.afterPass != nil {
		c.hooks.afterPass(c.work.since(before))
	}
}

// touch marks a job whose running set, guarantee, or ready queue changed:
// the next pass reclassifies it and re-derives its hungry and spare
// membership. Every such change calls touch — arrival, task end, eviction,
// dispatch, a new guarantee, completion — so a job the pass skips is one
// whose previous pass left it exactly as the retired full walk would.
//
//jockey:hotpath
func (c *Cluster) touch(jr *jobRun) {
	if !jr.dirty {
		jr.dirty = true
		c.dirty = append(c.dirty, jr)
	}
}

// reclassifyDirty opens a pass: it reads the contention factor once (a
// change dirties every live job, since every effective guarantee moved),
// then reclassifies and re-syncs each dirty job.
//
//jockey:hotpath
func (c *Cluster) reclassifyDirty() {
	if f := c.contentionFrac(); f != c.frac {
		c.frac = f
		for _, jr := range c.live {
			c.touch(jr)
		}
	}
	for _, jr := range c.dirty {
		jr.dirty = false
		if jr.arrived && !jr.completed {
			c.reclassify(jr)
		}
		c.sync(jr)
	}
	c.work.dirty += len(c.dirty)
	c.work.visits += len(c.dirty)
	c.dirty = c.dirty[:0]
}

// reclassify restores, for one job, the invariant that the guaranteed class
// is exactly the job's effectiveGuarantee() earliest-started primaries (by
// the taskStore.less total order) and everything else is spare. Earlier
// engines re-derived the partition from scratch with a full sort per pass;
// here it is repaired incrementally from the class heaps:
//
//  1. count rebalance — while the guaranteed class is too big, demote its
//     maximum (latest-started) member; while too small, promote the spare
//     minimum (earliest-started);
//  2. boundary repair — while some spare started before some guaranteed task
//     (min(spare) < max(guaranteed)), swap the two.
//
// Step 2 strictly shrinks the number of cross-class inversions each swap, so
// it terminates with min(spare) ≥ max(guaranteed): with the class sizes fixed
// by step 1, that is precisely the rank partition the full sort produced.
// On a job untouched since its last reclassify both steps are no-ops, which
// is why the pass visits dirty jobs only.
//
//jockey:hotpath
func (c *Cluster) reclassify(jr *jobRun) {
	if jr.liveRunning == 0 {
		return
	}
	st := &c.store
	target := c.effectiveGuarantee(jr)
	if jr.liveRunning < target {
		target = jr.liveRunning
	}
	for jr.guarCount > target {
		s := jr.guarHeap.s[0]
		st.maxRemove(&jr.guarHeap, s)
		st.flags[s] &^= flagGuar
		st.maxPush(&jr.spareMax, s)
		st.minPush(&jr.spareMin, s)
		jr.guarCount--
	}
	for jr.guarCount < target {
		s := jr.spareMin.s[0]
		st.minRemove(&jr.spareMin, s)
		st.maxRemove(&jr.spareMax, s)
		st.flags[s] |= flagGuar
		st.maxPush(&jr.guarHeap, s)
		jr.guarCount++
	}
	for len(jr.spareMin.s) > 0 && len(jr.guarHeap.s) > 0 &&
		st.less(jr.spareMin.s[0], jr.guarHeap.s[0]) {
		g := jr.guarHeap.s[0]
		sp := jr.spareMin.s[0]
		st.maxRemove(&jr.guarHeap, g)
		st.flags[g] &^= flagGuar
		st.maxPush(&jr.spareMax, g)
		st.minPush(&jr.spareMin, g)
		st.minRemove(&jr.spareMin, sp)
		st.maxRemove(&jr.spareMax, sp)
		st.flags[sp] |= flagGuar
		st.maxPush(&jr.guarHeap, sp)
	}
}

// rank is the job's hungry set: tracked (SLO) jobs rank first, since
// admission control promised them their guarantees, so they win when
// guarantees are over-subscribed; job-id order within each.
//
//jockey:hotpath
func (jr *jobRun) rank() int {
	if jr.cfg.Tracked {
		return 0
	}
	return 1
}

// sync re-derives the job's membership in the hungry and spare sets from
// its current state. The pass calls it on every dirty job and after every
// mutation it makes itself, so both sets are exact whenever a dispatcher
// reads them.
//
//jockey:hotpath
func (c *Cluster) sync(jr *jobRun) {
	live := jr.arrived && !jr.completed
	pending := jr.readyLen() > 0
	h := &c.hungry[jr.rank()]
	if want := live && pending && jr.guarCount < c.effectiveGuarantee(jr); want != h.get(jr.id) {
		if want {
			h.set(jr.id)
		} else {
			h.clear(jr.id)
		}
	}
	if want := live && pending && !jr.cfg.NoSpare; want != (jr.spareClass >= 0) {
		if want {
			c.spare.add(jr)
		} else {
			c.spare.remove(jr)
		}
	}
}

// dispatchGuaranteed serves guaranteed demand in rank order — the tracked
// hungry set, then the untracked one, job-id order within each — evicting
// the youngest spare task when the cluster is full. The walk takes the
// next hungry job after the current one, which keeps the retired
// snapshot-walk semantics exactly: a victim whose evicted task makes it
// hungry later in rank order is still visited this pass; one earlier in
// rank order waits for the next pass.
//
//jockey:hotpath
func (c *Cluster) dispatchGuaranteed() {
	for k := range c.hungry {
		h := &c.hungry[k]
		for id := h.next(0); id >= 0; id = h.next(id + 1) {
			jr := c.jobs[id]
			c.work.visits++
			eff := c.effectiveGuarantee(jr)
			for jr.guarCount < eff && jr.readyLen() > 0 {
				r, _ := jr.popReady()
				mi := c.freeMachineFor(jr, r.stage, r.task)
				if mi < 0 {
					vs, vjob := c.youngestSpare()
					if vs < 0 {
						// Every slot is running guaranteed work; put the task
						// back for the next scheduling pass.
						jr.markReady(c.now, r.stage, r.task)
						c.sync(jr)
						return
					}
					mi = int(c.store.machine[vs])
					c.evictTask(vjob, vs)
					c.sync(vjob)
				}
				c.startTask(jr, r, mi, true)
			}
			c.sync(jr)
		}
	}
}

// youngestSpare finds the most recently started spare task in the cluster —
// the cheapest one to evict. Each job's latest-started spare is the max of
// the tops of its two spare-class max-heaps (spare primaries and speculative
// duplicates), so the cluster-wide pick costs one comparison per job instead
// of the full task scan of earlier engines. Ties across jobs cannot break
// differently from the retired scan: it compared with a strict less, so the
// first job in c.jobs order kept the pick, exactly as this loop does. This
// is the one live-job walk left in the pass; it runs only on an eviction.
//
//jockey:hotpath
func (c *Cluster) youngestSpare() (int32, *jobRun) {
	c.work.evictionScans++
	st := &c.store
	best := int32(-1)
	var bestJob *jobRun
	for _, jr := range c.live {
		cand := int32(-1)
		if len(jr.spareMax.s) > 0 {
			cand = jr.spareMax.s[0]
		}
		if len(jr.dupHeap.s) > 0 && (cand < 0 || st.less(cand, jr.dupHeap.s[0])) {
			cand = jr.dupHeap.s[0]
		}
		if cand >= 0 && (best < 0 || st.less(best, cand)) {
			best, bestJob = cand, jr
		}
	}
	return best, bestJob
}

// dispatchSpare fills every free slot: one spare-set round per slot (see
// spareSet), and once no job has fresh work, speculative duplicates.
//
//jockey:hotpath
func (c *Cluster) dispatchSpare() {
	if len(c.live) == 0 {
		return
	}
	idle := 0
	for {
		mi := c.freeMachine()
		if mi < 0 {
			return
		}
		pick, visited := c.spare.pick()
		c.work.visits += visited
		if pick == nil {
			// No fresh work anywhere: spend truly idle slots on speculative
			// duplicates of straggling tasks.
			if !c.dispatchDuplicate(mi) {
				return
			}
			continue
		}
		r, _ := pick.popReady()
		if local := c.freeMachineFor(pick, r.stage, r.task); local >= 0 {
			mi = local
		}
		c.startTask(pick, r, mi, false)
		c.sync(pick)
		idle++
		if idle > 1<<20 {
			c.spareRunaway(mi)
		}
	}
}

// spareRunaway reports a spare dispatch loop that never ran out of slots;
// kept off the hot path so the assertion's arguments box only on failure.
func (c *Cluster) spareRunaway(mi int) {
	invariant.Assertf(false, "cluster: spare dispatch runaway at t=%v (machine %d)", c.now, mi)
}

// dispatchDuplicate launches a speculative copy of the most-overdue
// straggler (across speculation-enabled jobs) on the given machine. It
// returns false if no task qualifies. Candidates are every unspeculated
// running primary, walked through the job's two primary heaps (heap layout
// order, which is fine: the scan keeps a strict best with deterministic
// tie-breaks, so the winner is order-independent, exactly as with the
// retired map walk). When no live job speculates — every fleet replay —
// there is nothing to walk.
//
//jockey:hotpath
func (c *Cluster) dispatchDuplicate(mi int) bool {
	if c.specLive == 0 {
		return false
	}
	c.work.visits += len(c.live)
	st := &c.store
	worst := int32(-1)
	var worstJob *jobRun
	var worstRatio float64
	for _, jr := range c.live {
		th := jr.cfg.SpeculativeThreshold
		if th <= 0 {
			continue
		}
		for pass := 0; pass < 2; pass++ {
			h := jr.guarHeap.s
			if pass == 1 {
				h = jr.spareMax.s
			}
			for _, s := range h {
				if jr.dupSlot[st.stage[s]][st.task[s]] >= 0 {
					continue // already speculated
				}
				p90 := jr.stageP90[st.stage[s]]
				if p90 <= 0 {
					continue
				}
				elapsed := c.now - st.execStart[s]
				ratio := float64(elapsed) / float64(p90)
				if ratio < th {
					continue
				}
				// Deterministic despite scan order: strictly-better ratio
				// wins; exact ties resolve by task identity.
				if worst < 0 || ratio > worstRatio ||
					(ratio == worstRatio && st.less(s, worst)) {
					worst, worstJob, worstRatio = s, jr, ratio
				}
			}
		}
	}
	if worst < 0 {
		return false
	}
	c.startDuplicate(worstJob, worst, mi)
	return true
}

//jockey:hotpath
func (c *Cluster) startDuplicate(jr *jobRun, orig int32, machine int) {
	jr.accrueAlloc(c.now)
	st := &c.store
	stage, task := int(st.stage[orig]), int(st.task[orig])
	attempt := st.attempt[orig]
	sp := &jr.p.Stages[stage]
	initDelay := sp.Queue.Sample(jr.rng)
	exec := jr.driftExec(stage, sp.Exec.Sample(jr.rng))
	if exec <= 0 {
		exec = time.Millisecond
	}
	fails := sp.FailureProb > 0 && jr.rng.Float64() < sp.FailureProb
	if fails {
		exec = time.Duration(float64(exec) * jr.rng.Float64())
		if exec <= 0 {
			exec = time.Millisecond
		}
	}
	s := st.alloc()
	st.job[s] = int32(jr.id)
	st.stage[s] = int32(stage)
	st.task[s] = int32(task)
	st.attempt[s] = attempt
	st.machine[s] = int32(machine)
	st.startedAt[s] = c.now
	st.execStart[s] = c.now + initDelay
	st.flags[s] = flagDup // duplicates are always spare-class
	jr.dupSlot[stage][task] = s
	st.maxPush(&jr.dupHeap, s)
	jr.duplicates++
	c.attachMachine(machine, s)
	c.touch(jr)
	c.work.dispatched++
	c.logDispatch(dispatchDup, jr, stage, task, machine)
	c.endBatch = append(c.endBatch, eventq.Entry[event]{At: c.now + initDelay + exec, V: event{
		kind:    evTaskEnd,
		job:     jr.id,
		stage:   stage,
		task:    task,
		attempt: int(attempt),
		failed:  fails,
		dup:     true,
	}})
}

//jockey:hotpath
func (c *Cluster) startTask(jr *jobRun, r taskRef, machine int, guaranteed bool) {
	jr.accrueAlloc(c.now)
	sp := &jr.p.Stages[r.stage]
	initDelay := sp.Queue.Sample(jr.rng)
	exec := jr.driftExec(r.stage, sp.Exec.Sample(jr.rng))
	if exec <= 0 {
		exec = time.Millisecond
	}
	fails := false
	if sp.FailureProb > 0 && jr.attempts[r.stage][r.task] < maxClusterAttempts-1 {
		fails = jr.rng.Float64() < sp.FailureProb
	}
	if fails {
		exec = time.Duration(float64(exec) * jr.rng.Float64())
		if exec <= 0 {
			exec = time.Millisecond
		}
	}
	st := &c.store
	s := st.alloc()
	st.job[s] = int32(jr.id)
	st.stage[s] = int32(r.stage)
	st.task[s] = int32(r.task)
	st.attempt[s] = int32(jr.attempts[r.stage][r.task])
	st.machine[s] = int32(machine)
	st.startedAt[s] = c.now
	st.execStart[s] = c.now + initDelay
	if guaranteed {
		st.flags[s] = flagGuar | flagSpawnGuar
	} else {
		st.flags[s] = 0
	}
	jr.slot[r.stage][r.task] = s
	if guaranteed {
		st.maxPush(&jr.guarHeap, s)
		jr.guarCount++
	} else {
		st.maxPush(&jr.spareMax, s)
		st.minPush(&jr.spareMin, s)
	}
	jr.liveRunning++
	c.totalRunning++
	c.attachMachine(machine, s)
	c.touch(jr)
	c.work.dispatched++
	if guaranteed {
		c.logDispatch(dispatchGuar, jr, r.stage, r.task, machine)
	} else {
		c.logDispatch(dispatchSpare, jr, r.stage, r.task, machine)
	}
	c.endBatch = append(c.endBatch, eventq.Entry[event]{At: c.now + initDelay + exec, V: event{
		kind:    evTaskEnd,
		job:     jr.id,
		stage:   r.stage,
		task:    r.task,
		attempt: int(st.attempt[s]),
		failed:  fails,
	}})
}

// driftExec applies the stage's current runtime-drift factor to a sampled
// service time.
//
//jockey:hotpath
func (jr *jobRun) driftExec(stage int, exec time.Duration) time.Duration {
	if f := jr.driftFactor[stage]; f != 1 {
		exec = time.Duration(float64(exec) * f)
	}
	return exec
}

func localityFraction(jr *jobRun) float64 {
	if jr.rootDone == 0 {
		return 0
	}
	return float64(jr.localDone) / float64(jr.rootDone)
}

// maxClusterAttempts bounds re-execution of a failing task.
const maxClusterAttempts = 30

// passWork counts what scheduling passes did since the cluster (re)started:
// passes run, dirty jobs reclassified, jobs visited (dirty jobs, hungry-set
// entries walked, spare class tops compared, speculation candidates
// scanned) and attempts dispatched. The per-pass work guard holds visits
// within a constant of dirty + dispatched + 1 on every pass.
// evictionScans counts youngestSpare's live walks, the one O(live) step
// left, which runs only when guaranteed demand finds the cluster full.
type passWork struct {
	passes, dirty, visits, dispatched, evictionScans int
}

// since returns the work done after the snapshot before was taken.
func (w passWork) since(before passWork) passWork {
	return passWork{
		passes:        w.passes - before.passes,
		dirty:         w.dirty - before.dirty,
		visits:        w.visits - before.visits,
		dispatched:    w.dispatched - before.dispatched,
		evictionScans: w.evictionScans - before.evictionScans,
	}
}

// testHooks are the test seams of the scheduling pass. Cluster.hooks is nil
// in production; this package's tests set it to run the retired reference
// pass instead of the incremental one, to log every dispatch, or to check
// each pass's work.
type testHooks struct {
	reference func(c *Cluster)
	dispatch  func(d dispatchRec)
	afterPass func(w passWork)
}

type dispatchKind uint8

const (
	dispatchGuar  dispatchKind = iota // primary started on guaranteed tokens
	dispatchSpare                     // primary started on spare tokens
	dispatchDup                       // speculative duplicate started
	dispatchEvict                     // running attempt evicted or killed
)

// dispatchRec is one entry of the dispatch log a test hook receives.
type dispatchRec struct {
	at                        time.Duration
	kind                      dispatchKind
	job, stage, task, machine int32
}

// logDispatch feeds the test dispatch log, if one is installed.
//
//jockey:hotpath
func (c *Cluster) logDispatch(kind dispatchKind, jr *jobRun, stage, task, machine int) {
	if c.hooks != nil && c.hooks.dispatch != nil {
		c.hooks.dispatch(dispatchRec{at: c.now, kind: kind, job: int32(jr.id),
			stage: int32(stage), task: int32(task), machine: int32(machine)})
	}
}
