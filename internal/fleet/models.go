package fleet

import (
	"fmt"
	"sync"

	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/grid"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/workload"
)

// Shape identifies a recurring-job family: the plan (task count, optional
// reduce barrier) comes from the canonical background shapes of
// workload.BackgroundPool, and Scale is the quantized input-size multiplier
// of this recurrence. Two jobs with the same Shape share one profile pointer
// and one C(p, a) model.
type Shape struct {
	// Tasks is the map-stage task count.
	Tasks int
	// Barrier adds an all-to-all reduce stage.
	Barrier bool
	// Scale multiplies the shape's service times (0 and 1 both mean
	// unscaled). Scales are quantized so the model cache stays small.
	Scale float64
}

// Key is the cache key and display name of the shape.
func (s Shape) Key() string {
	name := fmt.Sprintf("bg-%d", s.Tasks)
	if s.Barrier {
		name = fmt.Sprintf("bgb-%d", s.Tasks)
	}
	if s.Scale != 0 && s.Scale != 1 {
		name = fmt.Sprintf("%s@x%.2g", name, s.Scale)
	}
	return name
}

// ModelCache is the cross-job C(p, a) and profile store of the fleet
// arbiter (ROADMAP item 1): Jockey models are keyed on job *shape*, not job
// identity, so a fleet of recurring jobs — and every cell of an experiment
// grid over such fleets — shares one offline simulation per shape instead
// of re-deriving it per admission.
//
// A ModelCache is safe for concurrent use (single-flight per key, like the
// experiment environment's caches) and deterministic: model seeds derive
// from the cache seed and the shape key alone, never from which caller
// triggered the build, so shared and private caches produce bit-identical
// models.
type ModelCache struct {
	seed         uint64
	maxTokens    int
	runsPerAlloc int
	parallelism  int

	mu       sync.Mutex // guards pool (BackgroundPool is not concurrency-safe)
	pool     *workload.BackgroundPool
	profiles grid.Cache[*profile.Profile]
	models   grid.Cache[*core.Jockey]
}

// DefaultMaxTokens is the top of each fleet job's candidate allocation grid.
// It is deliberately below typical budgets so one job cannot monopolize the
// cluster by asking: containment of a panicking guard is the arbiter's job.
const DefaultMaxTokens = 40

// NewModelCache returns an empty shape-keyed model store. All model
// randomness derives from seed.
func NewModelCache(seed uint64) *ModelCache {
	return &ModelCache{
		seed:         seed,
		maxTokens:    DefaultMaxTokens,
		runsPerAlloc: 4,
		pool:         workload.NewBackgroundPool(),
	}
}

// SetParallelism bounds the worker pool of offline C(p, a) builds (0 =
// GOMAXPROCS). Models are bit-identical at any value.
func (m *ModelCache) SetParallelism(n int) { m.parallelism = n }

// MaxTokens returns the top of the per-job candidate allocation grid.
func (m *ModelCache) MaxTokens() int { return m.maxTokens }

// Profile returns the shared ground-truth profile for a shape. The pointer
// is stable across calls (and so is its *dag.Job plan), which lets reusable
// cluster engines pool arenas across every job of the shape.
func (m *ModelCache) Profile(s Shape) (*profile.Profile, error) {
	return m.profile(s, s.Key())
}

// profile is Profile for a caller that already holds the shape's key.
func (m *ModelCache) profile(s Shape, key string) (*profile.Profile, error) {
	return m.profiles.Get(key, func() (*profile.Profile, error) {
		m.mu.Lock()
		base, err := m.pool.Shape(workload.BackgroundConfig{}, s.Tasks, s.Barrier)
		m.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if s.Scale != 0 && s.Scale != 1 {
			// Scale keeps the plan pointer, so scaled profiles still pool
			// engine arenas with their unscaled siblings.
			base = base.Scale(s.Scale)
		}
		return base, nil
	})
}

// Model returns the shared Jockey runtime (offline C(p, a) model) for a
// shape, building it single-flight on first use.
func (m *ModelCache) Model(s Shape) (*core.Jockey, error) {
	return m.model(s, s.Key())
}

// model is Model for a caller that already holds the shape's key.
func (m *ModelCache) model(s Shape, key string) (*core.Jockey, error) {
	return m.models.Get(key, func() (*core.Jockey, error) {
		p, err := m.profile(s, key)
		if err != nil {
			return nil, err
		}
		return core.New(p, core.Options{
			MaxTokens:    m.maxTokens,
			RunsPerAlloc: m.runsPerAlloc,
			Seed:         stats.DeriveSeed(m.seed, "fleet-model", key),
			Parallelism:  m.parallelism,
		})
	})
}
