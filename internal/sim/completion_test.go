package sim_test

// Equivalence of the completion-only path: RunCompletion must simulate
// exactly what Run simulates — same completion, same OnSample snapshots —
// and recording a trace must not change what a Runner does next.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/workload"
)

var tableTwoJobs = []string{"A", "B", "C", "D", "E", "F", "G"}

func tableTwoProfile(t testing.TB, name string) *profile.Profile {
	t.Helper()
	spec, err := workload.Spec(name)
	if err != nil {
		t.Fatal(err)
	}
	return workload.MustGenerate(spec, 1)
}

// snapshotLog collects OnSample snapshots, copying FracDone because the
// Runner's buffer is valid only during the callback.
type snapshotLog []sim.Snapshot

func (l *snapshotLog) record(s sim.Snapshot) {
	s.FracDone = append([]float64(nil), s.FracDone...)
	*l = append(*l, s)
}

// withLog returns cfg with a fresh log attached when cfg samples.
func withLog(cfg sim.Config) (sim.Config, *snapshotLog) {
	log := &snapshotLog{}
	if cfg.SampleEvery > 0 {
		cfg.OnSample = log.record
	}
	return cfg, log
}

// randomConfig draws one configuration of the sweep: failures on or off,
// MaxAttempts 0 (the default) to 3, sampling every 30 s or not, and a fresh
// or a random partially completed start.
func randomConfig(rng interface {
	IntN(int) int
	Float64() float64
	Uint64() uint64
}, p *profile.Profile, alloc int) sim.Config {
	cfg := sim.Config{
		Profile:         p,
		Alloc:           alloc,
		Seed:            rng.Uint64(),
		DisableFailures: rng.IntN(2) == 0,
		MaxAttempts:     rng.IntN(4),
	}
	if rng.IntN(2) == 0 {
		cfg.SampleEvery = 30 * time.Second
	}
	if rng.IntN(3) == 0 {
		cfg.InitialFracDone = make([]float64, p.Job.NumStages())
		for s := range cfg.InitialFracDone {
			cfg.InitialFracDone[s] = rng.Float64()
		}
	}
	return cfg
}

// TestRunCompletionMatchesRun sweeps jobs A–G over allocations, seeds,
// failure settings, attempt bounds, sampling and initial states: the
// completion-only run must return Run's completion (or fail alike) and
// hand OnSample the identical snapshot sequence.
func TestRunCompletionMatchesRun(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(1, "run-completion-sweep"))
	for _, name := range tableTwoJobs {
		p := tableTwoProfile(t, name)
		traced, plain := sim.NewRunner(), sim.NewRunner()
		for _, alloc := range []int{1, 2, 7, 40, 100} {
			for draw := 0; draw < 3; draw++ {
				cfg := randomConfig(rng, p, alloc)
				tcfg, want := withLog(cfg)
				tr, terr := traced.Run(tcfg)
				ccfg, got := withLog(cfg)
				completion, cerr := plain.RunCompletion(ccfg)
				if (terr == nil) != (cerr == nil) {
					t.Fatalf("job %s alloc %d draw %d: Run error %v, RunCompletion error %v", name, alloc, draw, terr, cerr)
				}
				if terr != nil {
					continue
				}
				if completion != tr.Completion {
					t.Errorf("job %s alloc %d draw %d: RunCompletion = %v, Run completion %v",
						name, alloc, draw, completion, tr.Completion)
				}
				if !reflect.DeepEqual(*got, *want) {
					t.Errorf("job %s alloc %d draw %d: RunCompletion's %d snapshots differ from Run's %d",
						name, alloc, draw, len(*got), len(*want))
				}
			}
		}
	}
}

func cloneTrace(tr *trace.JobTrace) *trace.JobTrace {
	cp := *tr
	cp.Events = append([]trace.TaskEvent(nil), tr.Events...)
	cp.Timeline = append([]trace.AllocPoint(nil), tr.Timeline...)
	return &cp
}

// TestRunnerInterleavesTracedAndCompletionRuns drives one Runner through
// traced and completion-only runs in turn, switching job shape twice: each
// traced run must reproduce a fresh engine's trace and each completion-only
// run its completion, so neither mode leaves state behind for the other.
func TestRunnerInterleavesTracedAndCompletionRuns(t *testing.T) {
	a, e := tableTwoProfile(t, "A"), tableTwoProfile(t, "E")
	cfgs := []sim.Config{
		{Profile: a, Alloc: 7, Seed: 1, SampleEvery: 30 * time.Second},
		{Profile: a, Alloc: 7, Seed: 1, SampleEvery: 30 * time.Second},
		{Profile: a, Alloc: 40, Seed: 2},
		{Profile: e, Alloc: 2, Seed: 3, InitialFracDone: make([]float64, e.Job.NumStages())},
		{Profile: e, Alloc: 100, Seed: 4, MaxAttempts: 2, SampleEvery: 30 * time.Second},
		{Profile: a, Alloc: 1, Seed: 5, DisableFailures: true},
		{Profile: a, Alloc: 12, Seed: 6, MaxAttempts: 1, SampleEvery: 30 * time.Second},
	}
	for start := 0; start < 2; start++ { // traced first, then completion-only first
		r := sim.NewRunner()
		for i, cfg := range cfgs {
			fcfg, wantSnaps := withLog(cfg)
			want, err := sim.Run(fcfg)
			if err != nil {
				t.Fatalf("cfg %d: %v", i, err)
			}
			rcfg, gotSnaps := withLog(cfg)
			if (i+start)%2 == 0 {
				tr, err := r.Run(rcfg)
				if err != nil {
					t.Fatalf("cfg %d traced: %v", i, err)
				}
				got := cloneTrace(tr)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("start %d cfg %d: traced run on a shared Runner differs from a fresh engine", start, i)
				}
			} else {
				completion, err := r.RunCompletion(rcfg)
				if err != nil {
					t.Fatalf("cfg %d completion-only: %v", i, err)
				}
				if completion != want.Completion {
					t.Errorf("start %d cfg %d: completion %v, fresh engine %v", start, i, completion, want.Completion)
				}
			}
			if !reflect.DeepEqual(*gotSnaps, *wantSnaps) {
				t.Errorf("start %d cfg %d: snapshots differ from a fresh engine's", start, i)
			}
		}
	}
}

// runTraceDigest hashes every field of every task event, the completion
// and every snapshot of the runs below.
func runTraceDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, name := range tableTwoJobs {
		p := tableTwoProfile(t, name)
		for _, alloc := range []int{1, 7, 100} {
			var snaps []sim.Snapshot
			tr, err := sim.Run(sim.Config{
				Profile: p, Alloc: alloc, Seed: uint64(alloc), MaxAttempts: 3,
				SampleEvery: 30 * time.Second,
				OnSample:    func(s sim.Snapshot) { snaps = append(snaps, s) },
			})
			if err != nil {
				t.Fatal(err)
			}
			put(int64(tr.Completion))
			for _, e := range tr.Events {
				put(int64(e.Stage))
				put(int64(e.Task))
				put(int64(e.Attempt))
				put(int64(e.Queued))
				put(int64(e.Dispatched))
				put(int64(e.Started))
				put(int64(e.Ended))
				if e.Failed {
					put(1)
				} else {
					put(0)
				}
			}
			for _, s := range snaps {
				put(int64(s.Time))
				put(int64(s.Running))
				put(int64(s.Ready))
				for _, f := range s.FracDone {
					put(int64(f * (1 << 52)))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunTraceDigest pins the traced engine's output on jobs A–G: the
// digest below was recorded with the per-stage-view engine that the flat
// int32 task core replaced, so every attempt's stage, task, attempt
// number, queued/dispatched/started/ended times and failure flag, and
// every snapshot, must still come out identical.
func TestRunTraceDigest(t *testing.T) {
	const want = "fb1c538e775b5ad759676649ae0ca71bcca5504760fb88aaeb8f9d7fe7b3843c"
	if got := runTraceDigest(t); got != want {
		t.Errorf("trace digest %s, want %s", got, want)
	}
}
