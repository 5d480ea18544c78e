package cluster_test

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/fleet"
	"github.com/jockeysim/jockey/internal/stats"
)

// fleetScaleConfig mirrors the fleet package's thousands-of-jobs workload
// (fleetScaleConfig in internal/fleet/fleetscale_test.go): 2,400 offers
// onto 700×5 machines, ~84 live jobs per epoch, spare weights {1, 2, 4}.
func fleetScaleConfig() fleet.Config {
	return fleet.Config{
		Seed:             11,
		Machines:         700,
		SlotsPerMachine:  5,
		Budget:           3500,
		Arrivals:         2400,
		MeanInterarrival: 8 * time.Second,
	}
}

// fleetStressConfig mirrors the fleet package's stressConfig: overload,
// an 11-of-20-machine rack outage and drifting jobs on a 60-token budget.
func fleetStressConfig(seed uint64, arb fleet.Arbitration, guarded bool) fleet.Config {
	return fleet.Config{
		Seed:        seed,
		Arrivals:    16,
		LoadFactor:  3,
		Budget:      60,
		Arbitration: arb,
		Guarded:     guarded,
		DriftEvery:  4,
		RackOutages: []cluster.RackOutage{{
			At: 12 * time.Minute, FirstMachine: 0, Machines: 11, Duration: 20 * time.Minute,
		}},
	}
}

// diffFleet replays cfg under the retired reference pass and then the
// incremental pass, each on a fresh engine sharing one model cache, and
// requires identical dispatch logs, per-pass work within the guard, and a
// byte-identical rendered result.
func diffFleet(t *testing.T, name string, cfg fleet.Config) {
	t.Helper()
	cfg.Models = fleet.NewModelCache(stats.DeriveSeed(cfg.Seed, "fleet-models"))
	d := cluster.NewPassDiff(t, name, true)
	replay := func(install func(*cluster.Engine)) string {
		eng := cluster.NewEngine()
		install(eng)
		c := cfg
		c.Engine = eng
		res, err := fleet.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res.Render()
	}
	ref := replay(d.Reference)
	got := replay(d.Incremental)
	d.Done()
	if got != ref {
		t.Errorf("%s: incremental replay differs from the reference pass:\n%s\n--- want ---\n%s", name, got, ref)
	}
}

// TestReferencePassFleetScale diffs the passes on the 2,400-offer fleet
// replay, where the incremental pass's per-pass work guard matters most:
// the retired pass walked every live job several times per event.
func TestReferencePassFleetScale(t *testing.T) {
	if testing.Short() {
		t.Skip("two 2,400-offer fleet replays; skipped in -short")
	}
	diffFleet(t, "fleet-scale", fleetScaleConfig())
}

// TestReferencePassFleetStress diffs the passes on the fleet stress
// replays, under every arbitration discipline.
func TestReferencePassFleetStress(t *testing.T) {
	for _, d := range []struct {
		arb     fleet.Arbitration
		guarded bool
	}{{fleet.FIFO, false}, {fleet.FairShare, false}, {fleet.UtilityGreedy, false}, {fleet.UtilityGreedy, true}} {
		name := string(d.arb)
		if d.guarded {
			name += "+guard"
		}
		diffFleet(t, "stress/"+name, fleetStressConfig(2, d.arb, d.guarded))
	}
}
