package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Quantile returns the q-quantile of values using linear interpolation
// between order statistics. It does not require the input to be sorted.
// It returns 0 for an empty input.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// QuantileSorted is Quantile for an already ascending-sorted slice.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// QuantileDurations returns the q-quantile of an ascending-sorted duration
// slice with linear interpolation. It returns 0 for an empty input.
//
// For 0 < q < 1 the position pos = q·(len-1) is non-negative and strictly
// below len-1 (rounding q·(len-1) to nearest cannot reach len-1 when q < 1),
// so int(pos) is floor(pos) and the upper order statistic is lo+1 unless
// pos is integral. This is the floor/ceil formula without the two calls,
// bit for bit (TestQuantileDurationsMatchesFloorCeil).
func QuantileDurations(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 {
		return sorted[lo]
	}
	return time.Duration(float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac)
}

// Mean returns the arithmetic mean, or 0 for an empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// StdDev returns the population standard deviation, or 0 for fewer than two
// values.
func StdDev(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := Mean(values)
	var ss float64
	for _, v := range values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(values)))
}

// CoV returns the coefficient of variation (stddev / mean) of the values.
// This is the statistic Table 1 of the paper reports for recurring-job
// completion times. It returns 0 if the mean is zero.
func CoV(values []float64) float64 {
	m := Mean(values)
	if m == 0 {
		return 0
	}
	return StdDev(values) / m
}

// CoVDurations is CoV over durations.
func CoVDurations(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return CoV(vs)
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, StdDev       float64
	Min, Max           float64
	P10, P50, P90, P99 float64
}

// Summarize computes a Summary of the values.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Mean:   Mean(s),
		StdDev: StdDev(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		P10:    quantileSorted(s, 0.10),
		P50:    quantileSorted(s, 0.50),
		P90:    quantileSorted(s, 0.90),
		P99:    quantileSorted(s, 0.99),
	}
}

// SummarizeDurations computes a Summary of the durations, in seconds.
func SummarizeDurations(ds []time.Duration) Summary {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return Summarize(vs)
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f p50=%.3f p90=%.3f p99=%.3f",
		s.N, s.Mean, s.StdDev, s.P50, s.P90, s.P99)
}

// Reservoir keeps a bounded uniform random sample of a stream of durations.
// The C(p,a) model uses reservoirs so that arbitrarily many offline
// simulations contribute to each progress bucket in constant memory.
type Reservoir struct {
	cap  int
	seen int64
	vals []time.Duration
}

// NewReservoir creates a reservoir holding at most capacity samples.
func NewReservoir(capacity int) *Reservoir {
	if capacity <= 0 {
		capacity = 1
	}
	return &Reservoir{cap: capacity}
}

// NewReservoirs returns len(offers) reservoirs of the given capacity whose
// retained samples share one backing array, carved so that reservoir i has
// room for exactly min(offers[i], capacity) samples — what it retains after
// offers[i] >= 0 Adds. A caller that knows its offer counts up front thus pays
// two allocations instead of one per reservoir plus every append growth.
// The counts size storage only: Add behaves exactly as on NewReservoir's
// reservoirs (Algorithm R depends only on how many values were seen and on
// the random source), and a reservoir offered more than offers[i] values
// grows its own storage.
func NewReservoirs(capacity int, offers []int) []Reservoir {
	if capacity <= 0 {
		capacity = 1
	}
	total := 0
	for _, n := range offers {
		total += min(n, capacity)
	}
	backing := make([]time.Duration, total)
	rs := make([]Reservoir, len(offers))
	off := 0
	for i, n := range offers {
		rs[i].cap = capacity
		if k := min(n, capacity); k > 0 {
			rs[i].vals = backing[off : off : off+k]
			off += k
		}
	}
	return rs
}

// Add offers a value to the reservoir. r selects which retained sample to
// replace once the reservoir is full (Vitter's algorithm R).
func (rv *Reservoir) Add(v time.Duration, r interface{ Int64N(int64) int64 }) {
	rv.seen++
	if len(rv.vals) < rv.cap {
		rv.vals = append(rv.vals, v)
		return
	}
	if j := r.Int64N(rv.seen); j < int64(rv.cap) {
		rv.vals[j] = v
	}
}

// Sort orders the retained samples ascending, in place. The C(p, a) table
// sorts every cell once after construction so that quantile queries index
// the sorted slice directly instead of copying and re-sorting per query.
// Algorithm R does not depend on element order, so Add remains correct
// after a Sort (though the table never adds post-build).
func (rv *Reservoir) Sort() {
	slices.Sort(rv.vals)
}

// Len returns the number of retained samples.
func (rv *Reservoir) Len() int { return len(rv.vals) }

// Seen returns how many values have been offered.
func (rv *Reservoir) Seen() int64 { return rv.seen }

// Values returns the retained samples. The slice is owned by the reservoir.
func (rv *Reservoir) Values() []time.Duration { return rv.vals }
