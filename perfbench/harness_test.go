package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, names[i])
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness emits %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestTinyRunsEmitEveryMetric runs every workload at tiny scale, untraced
// and traced, and checks that each run is correct and prints every metric.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: defaultSeed, seconds: 0.01, trace: traced, size: tiny}
			out, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 3 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, out.Correct, out.Attempted, out.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := out.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				case v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v %s", w.name, traced, d.name, v.Value, v.Unit)
				case !traced && v.Value <= 0:
					// Timings and memory never read 0.
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v.Value)
				}
			}
		}
	}
}

// flaky is a fake set-up workload whose second timed replay digests
// differently from the warm-up and whose third errors.
type flaky struct{ replays int }

func (f *flaky) replay(*counters) error {
	f.replays++
	if f.replays == 4 {
		return errors.New("forced replay error")
	}
	return nil
}

func (f *flaky) verify(*counters) (result, error) {
	if f.replays == 3 {
		return result{digest: "forced mismatch", slos: 1}, nil
	}
	return result{digest: "warm-up", met: 1, slos: 1}, nil
}

func TestCorrectnessGateCountsMismatchAndError(t *testing.T) {
	w := workload{name: "flaky", setup: func(uint64, size, *builds) (instance, error) { return &flaky{}, nil }}
	for _, traced := range []bool{false, true} {
		o := options{seed: 1, seconds: 0.01, trace: traced}
		var out output
		var err error
		if traced {
			out, err = tracedRun(o, w, io.Discard)
		} else {
			out, err = untracedRun(o, w, io.Discard)
		}
		if err != nil {
			t.Fatal(err)
		}
		if out.Correct || out.Failed != 2 {
			t.Errorf("traced=%v: correct=%v failed=%d, want a failed gate with 2 failures", traced, out.Correct, out.Failed)
		}
	}
}

// TestFleetScaleFailsOnUnbuiltShape checks that a replay offering a shape
// whose model set-up did not build fails verification, so model builds
// cannot move into the timed replays unseen.
func TestFleetScaleFailsOnUnbuiltShape(t *testing.T) {
	inst, err := setupFleetScale(defaultSeed, tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*fleetScale)
	if err := w.replay(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.verify(nil); err != nil {
		t.Fatalf("replay with every shape built: %v", err)
	}
	delete(w.shapes, w.last.Jobs[0].Shape)
	if _, err := w.verify(nil); err == nil {
		t.Errorf("verify passed a replay offering shape %s, whose model set-up did not build", w.last.Jobs[0].Shape)
	}
}

func TestPackageOfCutsTypeArguments(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/jockeysim/jockey/internal/eventq.(*Queue[github.com/jockeysim/jockey/internal/sim.event]).down": "eventq",
		"github.com/jockeysim/jockey/internal/eventq.(*Queue[...]).Push":                                            "eventq",
		"github.com/jockeysim/jockey/internal/cluster.(*Cluster).reschedule":                                        "cluster",
		"github.com/jockeysim/jockey/internal/stats.Lognormal.Sample":                                               "stats",
		"github.com/jockeysim/jockey/internal/core.New":                                                             "other",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/maps.(*Map).getWithKey":    "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData": "other",
		"sort.Sort": "other",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("layerOf(packageOf(%q)) = %q, want %q", fn, got, want)
		}
	}
}
