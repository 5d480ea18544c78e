package cluster

import (
	"testing"

	"github.com/jockeysim/jockey/internal/stats"
)

// TestSpareSetMatchesScan drives the virtual-time spare set and the retired
// per-round scan (float64 credits, every eligible job accrues, strict >
// keeps the lowest id) through the same random joins, leaves and rounds,
// with up to eight weight classes, and requires the same winner every round
// and the same credit for every job throughout.
func TestSpareSetMatchesScan(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := stats.NewRNG(stats.DeriveSeed(seed, "spare-set"))
		n := 1 + rng.IntN(40)
		jobs := make([]*jobRun, n)
		credit := make([]float64, n) // the retired scan's state
		for i := range jobs {
			jobs[i] = &jobRun{id: i, spareClass: -1, spareIdx: -1}
			jobs[i].cfg.Weight = 1 + rng.IntN(8)
		}
		var ss spareSet
		for step := 0; step < 2000; step++ {
			switch jr := jobs[rng.IntN(n)]; {
			case rng.IntN(3) == 0:
				if jr.spareClass < 0 {
					ss.add(jr)
				} else {
					ss.remove(jr)
				}
			default:
				var want *jobRun
				total := 0.0
				for i, j := range jobs {
					if j.spareClass < 0 {
						continue
					}
					credit[i] += float64(j.cfg.Weight)
					total += float64(j.cfg.Weight)
					if want == nil || credit[i] > credit[want.id] {
						want = j
					}
				}
				if want != nil {
					credit[want.id] -= total
				}
				if got, _ := ss.pick(); got != want {
					t.Fatalf("seed %d step %d: picked job %d, scan picked job %d", seed, step, idOf(got), idOf(want))
				}
			}
			for i, j := range jobs {
				if got := ss.credit(j); float64(got) != credit[i] {
					t.Fatalf("seed %d step %d: job %d credit %d, scan %v", seed, step, i, got, credit[i])
				}
			}
		}
	}
}

func idOf(jr *jobRun) int {
	if jr == nil {
		return -1
	}
	return jr.id
}
