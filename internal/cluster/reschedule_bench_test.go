package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
)

// perEventEvents is how many events one BenchmarkReschedulePerEvent
// iteration times.
const perEventEvents = 2000

// perEventCluster submits live jobs to a saturated cluster — four slots per
// job, two of them guaranteed, spare weights cycling through the fleet's
// {1, 2, 4}, every third job tracked — and runs it until every slot has
// turned over once. Each job has enough tasks to outlive the benchmark, so
// the live set stays fixed while the timed events run.
func perEventCluster(tb testing.TB, eng *Engine, p *profile.Profile, live int) *Cluster {
	tb.Helper()
	c, err := eng.Reset(Config{Machines: live, SlotsPerMachine: 4, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	weights := [...]int{1, 2, 4}
	for i := 0; i < live; i++ {
		if _, err := c.Submit(JobConfig{
			Profile: p, Guarantee: 2, Weight: weights[i%len(weights)],
			Tracked: i%3 == 0, NoTrace: true,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 4*live+live; i++ { // arrivals, then one turnover per slot
		if err := c.step(); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// BenchmarkReschedulePerEvent is the ladder row for the incremental
// scheduling pass: the cost of one event (a task end and the pass it
// triggers) with 10, 100 and 1,000 live jobs. Each iteration resets the
// engine, fills the cluster outside the timer, then times perEventEvents
// events; ns/event should stay flat across the sweep, and since the timed
// events replay identically every iteration, allocs/op does not depend on
// -benchtime.
func BenchmarkReschedulePerEvent(b *testing.B) {
	job := dag.NewBuilder("per-event").Stage("work", 400).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(30*time.Second, 90*time.Second)},
	})
	for _, live := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			eng := NewEngine()
			events := func(c *Cluster) {
				for e := 0; e < perEventEvents; e++ {
					if err := c.step(); err != nil {
						b.Fatal(err)
					}
				}
			}
			// Warm every arena and buffer. Twice: the engine's arena pool
			// hands arenas back in reverse order, so each must have served
			// both job-id roles before the timed loop reuses it.
			for w := 0; w < 2; w++ {
				events(perEventCluster(b, eng, p, live))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := perEventCluster(b, eng, p, live)
				b.StartTimer()
				events(c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perEventEvents), "ns/event")
		})
	}
}
