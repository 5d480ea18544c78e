package cluster

// refPass is the retired full-walk scheduling pass, kept verbatim in
// semantics as the reference the incremental pass (engine.go) is diffed
// against — the same role fillRef plays for the fleet water-fill. Every
// event it walks every live job: reclassify per job, a tracked-first rank
// order rebuilt from scratch, and one smooth weighted round-robin scan over
// all live jobs per free slot, with float64 credits. It shares the engine's
// primitives (startTask, evictTask, youngestSpare, dispatchDuplicate), so a
// diff isolates the pass itself.
//
// Install it with c.hooks = &testHooks{reference: newRefPass().run}. It
// keeps its credits by job id, so use one refPass per cluster run.
type refPass struct {
	credit []float64 // smooth weighted round-robin credit, by job id
	order  []*jobRun // scratch: rank order / eligible jobs
}

func newRefPass() *refPass { return &refPass{} }

func (rp *refPass) run(c *Cluster) {
	// The reference keeps no incremental state; drop the dirty marks the
	// shared primitives leave behind.
	for _, jr := range c.dirty {
		jr.dirty = false
	}
	c.dirty = c.dirty[:0]
	for len(rp.credit) < len(c.jobs) {
		rp.credit = append(rp.credit, 0)
	}
	rp.reclassify(c)
	rp.dispatchGuaranteed(c)
	rp.dispatchSpare(c)
}

// effectiveGuarantee re-reads the contention windows on every call, as the
// retired pass did.
func (rp *refPass) effectiveGuarantee(c *Cluster, jr *jobRun) int {
	f := c.contentionFrac()
	if f >= 1 {
		return jr.guarantee
	}
	return int(float64(jr.guarantee) * f)
}

func (rp *refPass) reclassify(c *Cluster) {
	st := &c.store
	for _, jr := range c.live {
		if jr.liveRunning == 0 {
			continue
		}
		target := rp.effectiveGuarantee(c, jr)
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
}

// guaranteedOrder returns the live jobs with tracked jobs first, then
// arrival order.
func (rp *refPass) guaranteedOrder(c *Cluster) []*jobRun {
	out := rp.order[:0]
	for _, jr := range c.live {
		if jr.cfg.Tracked {
			out = append(out, jr)
		}
	}
	for _, jr := range c.live {
		if !jr.cfg.Tracked {
			out = append(out, jr)
		}
	}
	rp.order = out
	return out
}

func (rp *refPass) dispatchGuaranteed(c *Cluster) {
	for _, jr := range rp.guaranteedOrder(c) {
		eff := rp.effectiveGuarantee(c, jr)
		for jr.guarCount < eff && jr.readyLen() > 0 {
			r, _ := jr.popReady()
			mi := c.freeMachineFor(jr, r.stage, r.task)
			if mi < 0 {
				vs, vjob := c.youngestSpare()
				if vs < 0 {
					jr.markReady(c.now, r.stage, r.task)
					return
				}
				mi = int(c.store.machine[vs])
				c.evictTask(vjob, vs)
			}
			c.startTask(jr, r, mi, true)
		}
	}
}

func (rp *refPass) dispatchSpare(c *Cluster) {
	if len(c.live) == 0 {
		return
	}
	for {
		mi := c.freeMachine()
		if mi < 0 {
			return
		}
		eligible := rp.order[:0]
		totalWeight := 0.0
		for _, jr := range c.live {
			if jr.cfg.NoSpare || jr.readyLen() == 0 {
				continue
			}
			eligible = append(eligible, jr)
			totalWeight += float64(jr.cfg.Weight)
		}
		rp.order = eligible
		if len(eligible) == 0 {
			if !c.dispatchDuplicate(mi) {
				return
			}
			continue
		}
		var pick *jobRun
		for _, jr := range eligible {
			rp.credit[jr.id] += float64(jr.cfg.Weight)
			if pick == nil || rp.credit[jr.id] > rp.credit[pick.id] {
				pick = jr
			}
		}
		rp.credit[pick.id] -= totalWeight
		r, _ := pick.popReady()
		if local := c.freeMachineFor(pick, r.stage, r.task); local >= 0 {
			mi = local
		}
		c.startTask(pick, r, mi, false)
	}
}
