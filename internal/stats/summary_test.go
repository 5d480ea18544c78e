package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestQuantileBasics(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {-0.5, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	Quantile(vals, 0.5)
	if vals[0] != 4 || vals[1] != 1 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestQuantileDurations(t *testing.T) {
	ds := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}
	if got := QuantileDurations(ds, 0.5); got != 2*time.Second {
		t.Errorf("median = %v", got)
	}
	if got := QuantileDurations(ds, 0.75); got != 3*time.Second {
		t.Errorf("p75 = %v, want 3s", got)
	}
	if got := QuantileDurations(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestMeanStdDevCoV(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vals); got != 5 {
		t.Errorf("mean = %v", got)
	}
	if got := StdDev(vals); math.Abs(got-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", got)
	}
	if got := CoV(vals); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("CoV = %v, want 0.4", got)
	}
	if CoV(nil) != 0 || StdDev([]float64{1}) != 0 || Mean(nil) != 0 {
		t.Error("degenerate inputs must yield 0")
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Error("zero-mean CoV must be 0")
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := Summarize(vals)
	if s.N != 101 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("bad summary: %+v", s)
	}
	if s.P50 != 50 || s.P10 != 10 || s.P90 != 90 {
		t.Errorf("percentiles: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary: %+v", z)
	}
}

func TestSummarizeDurations(t *testing.T) {
	s := SummarizeDurations([]time.Duration{time.Second, 3 * time.Second})
	if s.Mean != 2 {
		t.Errorf("mean = %v", s.Mean)
	}
}

func TestCoVDurations(t *testing.T) {
	got := CoVDurations([]time.Duration{2 * time.Second, 4 * time.Second, 4 * time.Second,
		4 * time.Second, 5 * time.Second, 5 * time.Second, 7 * time.Second, 9 * time.Second})
	if math.Abs(got-0.4) > 1e-9 {
		t.Errorf("CoV = %v, want 0.4", got)
	}
}

func TestQuantileSortedAgreesWithQuantileProperty(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		q = math.Abs(math.Mod(q, 1))
		want := Quantile(vals, q)
		s := make([]float64, len(vals))
		copy(s, vals)
		sort.Float64s(s)
		return QuantileSorted(s, q) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReservoirBelowCapacityKeepsAll(t *testing.T) {
	rv := NewReservoir(10)
	r := NewRNG(1)
	for i := 1; i <= 5; i++ {
		rv.Add(time.Duration(i), r)
	}
	if rv.Len() != 5 || rv.Seen() != 5 {
		t.Fatalf("len=%d seen=%d", rv.Len(), rv.Seen())
	}
}

func TestReservoirBoundedAndUniformish(t *testing.T) {
	const capacity, n = 100, 10000
	rv := NewReservoir(capacity)
	r := NewRNG(2)
	for i := 0; i < n; i++ {
		rv.Add(time.Duration(i), r)
	}
	if rv.Len() != capacity {
		t.Fatalf("len = %d, want %d", rv.Len(), capacity)
	}
	if rv.Seen() != n {
		t.Fatalf("seen = %d", rv.Seen())
	}
	// A uniform sample of 0..n-1 should have mean near n/2.
	var sum float64
	for _, v := range rv.Values() {
		sum += float64(v)
	}
	mean := sum / capacity
	if mean < n*0.35 || mean > n*0.65 {
		t.Errorf("reservoir mean %.0f suggests bias (want ~%d)", mean, n/2)
	}
}

func TestReservoirZeroCapacity(t *testing.T) {
	rv := NewReservoir(0)
	r := NewRNG(3)
	rv.Add(time.Second, r)
	rv.Add(2*time.Second, r)
	if rv.Len() != 1 {
		t.Fatalf("capacity-0 reservoir should clamp to 1, got len %d", rv.Len())
	}
}

func TestZScore(t *testing.T) {
	cases := []struct{ q, want float64 }{
		{0.5, 0},
		{0.9, 1.2815515655446004},
		{0.1, -1.2815515655446004},
	}
	for _, c := range cases {
		if got := zScore(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("zScore(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsInf(zScore(0), -1) || !math.IsInf(zScore(1), 1) {
		t.Error("zScore extremes must be infinite")
	}
}

func TestSecondsToDurationClamps(t *testing.T) {
	if secondsToDuration(-5) != 0 {
		t.Error("negative seconds must clamp to 0")
	}
	if secondsToDuration(1e30) != math.MaxInt64 {
		t.Error("huge seconds must clamp to MaxInt64")
	}
	if got := secondsToDuration(1.5); got != 1500*time.Millisecond {
		t.Errorf("1.5s -> %v", got)
	}
	if got := durationToSeconds(1500 * time.Millisecond); got != 1.5 {
		t.Errorf("roundtrip: %v", got)
	}
}

// quantileDurationsFloorCeil is QuantileDurations as it was written before
// the floor/ceil calls were dropped; the property below pins the two
// together bit for bit.
func quantileDurationsFloorCeil(sorted []time.Duration, q float64) time.Duration {
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
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return time.Duration(float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac)
}

func TestQuantileDurationsMatchesFloorCeil(t *testing.T) {
	check := func(sorted []time.Duration, q float64) bool {
		return QuantileDurations(sorted, q) == quantileDurationsFloorCeil(sorted, q)
	}
	prop := func(raw []int64, q float64) bool {
		sorted := make([]time.Duration, len(raw))
		for i, v := range raw {
			sorted[i] = time.Duration(v)
		}
		slices.Sort(sorted)
		if math.IsNaN(q) || math.IsInf(q, 0) {
			q = 0.5
		}
		return check(sorted, math.Abs(math.Mod(q, 1))) && check(sorted, q)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// The edges the argument rests on: q just below 1 (where pos comes
	// closest to len-1), integral positions, a single sample, the smallest
	// positive q, and lengths around powers of two.
	justBelowOne := 1 - math.Pow(2, -53)
	for _, n := range []int{1, 2, 3, 4, 5, 17, 64, 65, 100, 1 << 20} {
		sorted := make([]time.Duration, n)
		for i := range sorted {
			sorted[i] = time.Duration(i*i) * time.Millisecond
		}
		qs := []float64{math.SmallestNonzeroFloat64, justBelowOne, math.Nextafter(justBelowOne, 0), 0.5, 0.9, 0.99}
		for k := 1; k < n-1 && k < 8; k++ {
			qs = append(qs, float64(k)/float64(n-1)) // integral pos
		}
		for _, q := range qs {
			if !check(sorted, q) {
				t.Errorf("n=%d q=%v: %v, floor/ceil formula %v", n, q,
					QuantileDurations(sorted, q), quantileDurationsFloorCeil(sorted, q))
			}
		}
	}
}

// TestNewReservoirsMatchNewReservoir: reservoirs carved from one backing
// array retain exactly what separately allocated ones retain under the
// same interleaved Add sequence and shared random source — including a
// reservoir offered more values than it was sized for.
func TestNewReservoirsMatchNewReservoir(t *testing.T) {
	const capacity = 8
	offers := []int{0, 1, capacity - 1, capacity, capacity + 5, 3 * capacity}
	sized := append([]int(nil), offers...)
	sized[len(sized)-1] = 2 // under-declared: must grow its own storage
	carved := NewReservoirs(capacity, sized)
	separate := make([]*Reservoir, len(offers))
	for i := range separate {
		separate[i] = NewReservoir(capacity)
	}
	rc, rs := NewRNG(9), NewRNG(9)
	left := append([]int(nil), offers...)
	for v := time.Duration(1); ; v++ {
		added := false
		for i := range left {
			if left[i] == 0 {
				continue
			}
			left[i]--
			carved[i].Add(v*time.Duration(i+1), rc)
			separate[i].Add(v*time.Duration(i+1), rs)
			added = true
		}
		if !added {
			break
		}
	}
	for i := range offers {
		if !slices.Equal(carved[i].Values(), separate[i].Values()) || carved[i].Seen() != separate[i].Seen() {
			t.Errorf("reservoir %d (offers %d): carved %v seen %d, separate %v seen %d", i, offers[i],
				carved[i].Values(), carved[i].Seen(), separate[i].Values(), separate[i].Seen())
		}
	}
}
