package cluster

// spareSet hands out spare slots by smooth weighted round-robin over the
// jobs with pending work (the cluster's weighted fair sharing), in virtual
// time. The retired dispatcher ran one scan per slot: every eligible job
// accrued credit += weight, the highest credit won (lowest job id on ties)
// and paid the round's total weight. Here the round counter R stands in for
// the accrual: an eligible job's credit is base + weight·R, so advancing R
// credits every eligible job at once, and only the winner's base moves.
//
// Credits are sums and differences of integer weights, so they were always
// integer-valued in the retired float64 arithmetic; int64 reproduces them
// exactly. Within one weight class, base order is credit order for every R,
// so each class keeps one indexed max-heap keyed (base desc, job id asc)
// that R never reorders; a round compares only the class tops. With the
// fleet's three weights, a round costs O(log n) instead of O(live jobs).
//
// A job's credit is materialized — stored whole in jobRun.spareCredit —
// while it is not eligible, and converted to a base on entry, so jobs
// leaving and rejoining keep exactly the credit the retired scan froze.
type spareSet struct {
	round   int64 // R: rounds dispatched since the cluster (re)started
	total   int64 // Σ weight over eligible jobs
	classes []spareClass
}

// spareClass is the max-heap of eligible jobs sharing one weight.
type spareClass struct {
	weight int64
	h      []*jobRun
}

// reset empties the set, keeping every class heap's capacity (and the
// classes themselves: an empty class is skipped by pick).
func (ss *spareSet) reset() {
	ss.round, ss.total = 0, 0
	for i := range ss.classes {
		ss.classes[i].h = ss.classes[i].h[:0]
	}
}

// add makes jr eligible, converting its materialized credit to a base.
//
//jockey:hotpath
func (ss *spareSet) add(jr *jobRun) {
	w := int64(jr.cfg.Weight)
	ci := -1
	for i := range ss.classes {
		if ss.classes[i].weight == w {
			ci = i
			break
		}
	}
	if ci < 0 {
		ci = len(ss.classes)
		ss.classes = append(ss.classes, spareClass{weight: w})
	}
	cl := &ss.classes[ci]
	jr.spareClass = int32(ci)
	jr.spareCredit -= w * ss.round
	jr.spareIdx = int32(len(cl.h))
	cl.h = append(cl.h, jr)
	cl.up(int(jr.spareIdx))
	ss.total += w
}

// remove makes jr ineligible, materializing its credit.
//
//jockey:hotpath
func (ss *spareSet) remove(jr *jobRun) {
	cl := &ss.classes[jr.spareClass]
	i := int(jr.spareIdx)
	n := len(cl.h) - 1
	last := cl.h[n]
	cl.h[n] = nil
	cl.h = cl.h[:n]
	if i != n {
		cl.h[i] = last
		last.spareIdx = int32(i)
		if !cl.down(i) {
			cl.up(i)
		}
	}
	jr.spareCredit += cl.weight * ss.round
	jr.spareClass, jr.spareIdx = -1, -1
	ss.total -= cl.weight
}

// pick runs one round: every eligible job accrues its weight, the highest
// credit (lowest job id on ties) wins the slot and is charged the round's
// total weight. It returns nil, advancing nothing, when no job is eligible.
// visited counts the class tops compared.
//
//jockey:hotpath
func (ss *spareSet) pick() (best *jobRun, visited int) {
	if ss.total == 0 {
		return nil, 0
	}
	ss.round++
	var bestCredit int64
	bestClass := -1
	for ci := range ss.classes {
		cl := &ss.classes[ci]
		if len(cl.h) == 0 {
			continue
		}
		visited++
		top := cl.h[0]
		credit := top.spareCredit + cl.weight*ss.round
		if best == nil || credit > bestCredit || (credit == bestCredit && top.id < best.id) {
			best, bestCredit, bestClass = top, credit, ci
		}
	}
	best.spareCredit -= ss.total
	ss.classes[bestClass].down(0)
	return best, visited
}

// credit returns jr's current credit whether or not it is eligible.
func (ss *spareSet) credit(jr *jobRun) int64 {
	if jr.spareClass < 0 {
		return jr.spareCredit
	}
	return jr.spareCredit + ss.classes[jr.spareClass].weight*ss.round
}

//jockey:hotpath
func spareBefore(a, b *jobRun) bool {
	if a.spareCredit != b.spareCredit {
		return a.spareCredit > b.spareCredit
	}
	return a.id < b.id
}

//jockey:hotpath
func (cl *spareClass) swap(i, j int) {
	cl.h[i], cl.h[j] = cl.h[j], cl.h[i]
	cl.h[i].spareIdx = int32(i)
	cl.h[j].spareIdx = int32(j)
}

//jockey:hotpath
func (cl *spareClass) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !spareBefore(cl.h[i], cl.h[parent]) {
			return
		}
		cl.swap(i, parent)
		i = parent
	}
}

//jockey:hotpath
func (cl *spareClass) down(i int) bool {
	moved := false
	n := len(cl.h)
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		top := left
		if right := left + 1; right < n && spareBefore(cl.h[right], cl.h[left]) {
			top = right
		}
		if !spareBefore(cl.h[top], cl.h[i]) {
			return moved
		}
		cl.swap(i, top)
		i = top
		moved = true
	}
}
