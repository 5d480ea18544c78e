package cluster

import "github.com/jockeysim/jockey/internal/invariant"

// The debug-build audit of the incremental scheduling pass (run on every
// pass under -tags invariantdebug; compiled out of default builds by the
// invariant.Debug constant). The pass only revisits dirty jobs, so a missed
// touch() would leave a clean job's derived state stale without any test
// output changing until much later. These checks re-derive every live job's
// state from scratch — clean jobs included — and require the incremental
// structures to equal it.

// checkRanks runs once the pass has reclassified its dirty jobs, before any
// dispatch: every live job must then hold exactly the rank partition the
// retired all-jobs reclassify produced — min(effectiveGuarantee, running)
// guaranteed primaries, none started after a spare primary. (Dispatch may
// legitimately break the partition again: tasks started in one instant
// rank by stage and task, not by dispatch order. Those jobs are dirty, and
// the next pass repairs them first.)
func (c *Cluster) checkRanks() {
	st := &c.store
	for _, jr := range c.live {
		want := min(c.effectiveGuarantee(jr), jr.liveRunning)
		spares := jr.liveRunning - jr.guarCount
		if !(jr.guarCount == want && len(jr.guarHeap.s) == jr.guarCount &&
			len(jr.spareMin.s) == spares && len(jr.spareMax.s) == spares) {
			invariant.Assertf(false, "cluster: job %d at t=%v has %d guaranteed of %d running (heaps %d/%d/%d), want %d",
				jr.id, c.now, jr.guarCount, jr.liveRunning,
				len(jr.guarHeap.s), len(jr.spareMin.s), len(jr.spareMax.s), want)
		}
		if !(len(jr.spareMin.s) == 0 || len(jr.guarHeap.s) == 0 ||
			!st.less(jr.spareMin.s[0], jr.guarHeap.s[0])) {
			invariant.Assertf(false, "cluster: job %d at t=%v has a spare task started before a guaranteed one", jr.id, c.now)
		}
	}
}

// checkSets runs after reclassification and again at the end of the pass,
// when the dispatchers' own syncs must have kept both sets exact:
//
//   - hungry-set membership: the job's bit is set, in its own rank's set
//     only, iff guarCount < effectiveGuarantee and work is pending; no
//     bit belongs to a job that is not live;
//   - spare-set membership: the job sits in its weight's class heap, at its
//     recorded index, iff it is spare-eligible; the heaps are ordered; and
//     the eligible weights sum to the set's total.
//
// Credits are checked by conservation: each round adds the round's total
// weight across the eligible jobs and charges the same total to the winner,
// so the materialized credits of all jobs, live or not, sum to zero.
func (c *Cluster) checkSets() {
	var eligibleWeight int64
	eligible := 0
	for _, jr := range c.live {
		eff := c.effectiveGuarantee(jr)
		pending := jr.readyLen() > 0
		hungry := pending && jr.guarCount < eff
		if !(c.hungry[jr.rank()].get(jr.id) == hungry && !c.hungry[1-jr.rank()].get(jr.id)) {
			invariant.Assertf(false, "cluster: job %d at t=%v hungry-set membership stale (want %v)", jr.id, c.now, hungry)
		}

		spare := pending && !jr.cfg.NoSpare
		if !((jr.spareClass >= 0) == spare) {
			invariant.Assertf(false, "cluster: job %d at t=%v spare-set membership stale (want %v)", jr.id, c.now, spare)
		}
		if spare {
			cl := &c.spare.classes[jr.spareClass]
			if !(cl.weight == int64(jr.cfg.Weight) && cl.h[jr.spareIdx] == jr) {
				invariant.Assertf(false, "cluster: job %d at t=%v misfiled in spare class of weight %d", jr.id, c.now, cl.weight)
			}
			eligibleWeight += cl.weight
			eligible++
		}
	}
	for k := range c.hungry {
		for id := c.hungry[k].next(0); id >= 0; id = c.hungry[k].next(id + 1) {
			jr := c.jobs[id]
			if !(jr.arrived && !jr.completed) {
				invariant.Assertf(false, "cluster: job %d at t=%v is in a hungry set but not live", id, c.now)
			}
		}
	}
	members := 0
	for ci := range c.spare.classes {
		h := c.spare.classes[ci].h
		members += len(h)
		for i := 1; i < len(h); i++ {
			if !(!spareBefore(h[i], h[(i-1)/2])) {
				invariant.Assertf(false, "cluster: spare class %d heap out of order at t=%v", ci, c.now)
			}
		}
	}
	if !(members == eligible && eligibleWeight == c.spare.total) {
		invariant.Assertf(false, "cluster: spare set at t=%v holds %d jobs of weight %d, want %d of weight %d",
			c.now, members, c.spare.total, eligible, eligibleWeight)
	}
	var sum int64
	for _, jr := range c.jobs {
		sum += c.spare.credit(jr)
	}
	if !(sum == 0) {
		invariant.Assertf(false, "cluster: spare credits at t=%v sum to %d, want 0", c.now, sum)
	}
}
