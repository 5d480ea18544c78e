// Command perfbench is the repository benchmark. It replays one of three
// fixed workloads through the program's public layers, times the replays
// single-threaded, checks every replay's simulated result against the
// warm-up replay's digest, and prints the metrics as one JSON line:
//
//	perfbench --workload fleet-scale --seed 11 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: model-build times, hook counts, runtime.MemStats deltas and a
// CPU profile split by layer, plus the tracing overhead. README.md lists
// every metric with the workload it should move.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// processStart stands in for process start: the first set-up's setup_s
// runs from here, so it includes runtime and package initialization.
var processStart = time.Now()

const (
	// defaultSeed replays the fleet package's fleetScaleConfig exactly.
	defaultSeed = 11
	// setupRounds is how many times a run sets the workload up; setup_s is
	// the median, so one slow set-up on a shared host does not move it.
	setupRounds = 3
	// minReplays is the fewest timed replays a run makes, whatever
	// --seconds says.
	minReplays = 3
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer list every metric the two kinds of run print, in
// the order of BENCHMARK.json (the self-test keeps the two in step).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"slo_met_frac", "fraction"},
		{"above_oracle_frac", "fraction"},
		{"model.build_s", "s"},
		{"model.builds", "count"},
		{"guard.reprofiles", "count"},
		{"control.decisions", "count"},
		{"fleet.epochs", "count"},
		{"fleet.active_mean", "jobs"},
		{"fleet.bidders_mean", "jobs"},
		{"fleet.heap_ops", "count"},
		{"fleet.admitted", "count"},
		{"fleet.rejected", "count"},
		{"cluster.evictions", "count"},
		{"cluster.spare_task_frac", "fraction"},
		{"cluster.task_attempts", "count"},
		{"gc.allocs_per_replay", "count"},
		{"gc.alloc_mb_per_replay", "MB"},
		{"gc.cycles_per_replay", "count"},
	}
	for _, l := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + l, "fraction"}, metricDef{"cpu." + l + "_s", "s"})
	}
	return append(defs,
		metricDef{"cpu.samples", "count"},
		metricDef{"cpu.profile_s", "s"},
		metricDef{"trace.wall_s", "s"},
		metricDef{"trace.untraced_wall_s", "s"},
		metricDef{"trace.overhead_s", "s"},
	)
}()

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     size
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The program's worker pools are set to 1 in set-up; this pins the
	// runtime too, so timings do not depend on the host's CPU count.
	runtime.GOMAXPROCS(1)
	out, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traced int
	fs.StringVar(&o.workload, "workload", "", "workload to replay: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; every random draw of the replay derives from it")
	fs.Float64Var(&o.seconds, "seconds", 40, "how long the run lasts, set-ups and replays together")
	fs.IntVar(&traced, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if traced != 0 && traced != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = traced == 1
	return o, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func run(o options, log io.Writer) (output, error) {
	for _, w := range workloads {
		if w.name == o.workload {
			if o.trace {
				return tracedRun(o, w, log)
			}
			return untracedRun(o, w, log)
		}
	}
	return output{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
}

// tally counts replays and checks each against the reference digest of the
// first warm-up replay. A replay that errors, breaks an invariant or
// digests differently is a failed operation; none is dropped.
type tally struct {
	log               io.Writer
	ref               result
	attempted, failed int
}

func (t *tally) add(r result, err error) {
	t.attempted++
	if t.attempted == 1 {
		t.ref = r
	}
	switch {
	case err != nil:
		t.failed++
		fmt.Fprintf(t.log, "replay %d failed: %v\n", t.attempted, err)
	case r.digest != t.ref.digest:
		t.failed++
		fmt.Fprintf(t.log, "replay %d digest %s differs from warm-up digest %s\n", t.attempted, r.digest, t.ref.digest)
	}
}

func (t *tally) output(metrics map[string]value) output {
	return output{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// replayVerified runs one replay and its verification, returning the
// replay's wall time.
func replayVerified(inst instance, c *counters, t *tally) float64 {
	start := time.Now()
	err := inst.replay(c)
	wall := time.Since(start).Seconds()
	r, verr := inst.verify(c)
	t.add(r, errors.Join(err, verr))
	return wall
}

// runDeadline is when a run that started at processStart has used its
// o.seconds: set-ups and replays share them, so a run's length does not
// depend on how long its set-ups take.
func runDeadline(o options) time.Time {
	return processStart.Add(time.Duration(o.seconds * float64(time.Second)))
}

// untracedRun produces the end-to-end metrics: set up setupRounds times
// (each set-up ending with its warm-up replay), then time replays on the
// last set-up for the rest of o.seconds. No hook, build timer or profile is on.
func untracedRun(o options, w workload, log io.Writer) (output, error) {
	t := &tally{log: log}
	var setups []float64
	var inst instance
	for i := 0; i < setupRounds; i++ {
		start := processStart
		if i > 0 {
			// Return the previous set-up's memory to the OS, so the peak
			// resident set is one set-up's, not the sum of their leftovers.
			inst = nil
			debug.FreeOSMemory()
			start = time.Now()
		}
		var err error
		if inst, err = w.setup(o.seed, o.size, nil); err != nil {
			return output{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		replayVerified(inst, nil, t)
		setups = append(setups, time.Since(start).Seconds())
	}
	var walls []float64
	for end := runDeadline(o); len(walls) < minReplays || time.Now().Before(end); {
		walls = append(walls, replayVerified(inst, nil, t))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return output{}, err
	}
	ref := t.ref
	fmt.Fprintf(log, "%s seed %d: digest %s, SLOs met %d/%d, mean above oracle %.6f\n",
		w.name, o.seed, ref.digest, ref.met, ref.slos, ref.aboveOracle)
	fmt.Fprintf(log, "set-ups %s s; %d timed replays: median %.4f s, min %.4f s, max %.4f s\n",
		fmtList(setups), len(walls), median(walls), slices.Min(walls), slices.Max(walls))
	if ref.slos == 0 {
		return output{}, fmt.Errorf("%s: warm-up replay had no SLOs", w.name)
	}
	metrics, err := collect(endToEnd, map[string]float64{
		"wall_s":      median(walls),
		"setup_s":     median(setups),
		"peak_rss_mb": rss,
	})
	return t.output(metrics), err
}

// tracedRun produces the per-layer metrics: one set-up with timed model
// builds and a warm-up replay, then, for the rest of o.seconds, untraced
// replays for the overhead baseline alternating with traced replays, each
// with the hooks on, MemStats read around it and a CPU profile of the
// replay alone.
func tracedRun(o options, w workload, log io.Writer) (output, error) {
	t := &tally{log: log}
	b := &builds{}
	inst, err := w.setup(o.seed, o.size, b)
	if err != nil {
		return output{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	replayVerified(inst, nil, t)
	end := runDeadline(o)
	c := &counters{}
	cpu := cpuSplit{layer: map[string]int64{}}
	var mallocs, allocBytes, cycles uint64
	var profErr error
	tracedReplay := func() float64 {
		var before, after runtime.MemStats
		var prof bytes.Buffer
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			profErr = err
		}
		start := time.Now()
		err := inst.replay(c)
		wall := time.Since(start).Seconds()
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		cycles += uint64(after.NumGC - before.NumGC)
		r, verr := inst.verify(c)
		t.add(r, errors.Join(err, verr))
		if s, err := splitCPUProfile(prof.Bytes()); err != nil {
			profErr = err
		} else {
			cpu.samples += s.samples
			cpu.nanos += s.nanos
			for l, ns := range s.layer {
				cpu.layer[l] += ns
			}
		}
		return wall
	}
	// Untraced and traced replays alternate, so both medians sample the
	// same stretch of host speed and their difference is the overhead.
	var untraced, traced []float64
	for len(traced) < 2 || time.Now().Before(end) {
		untraced = append(untraced, replayVerified(inst, nil, t))
		traced = append(traced, tracedReplay())
	}
	if profErr != nil {
		return output{}, profErr
	}

	n := float64(len(traced))
	per := func(x int) float64 { return float64(x) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	vals := map[string]float64{
		"slo_met_frac":            ratio(float64(t.ref.met), float64(t.ref.slos)),
		"above_oracle_frac":       t.ref.aboveOracle,
		"model.build_s":           b.total.Seconds(),
		"model.builds":            float64(b.n),
		"guard.reprofiles":        per(c.reprofiles),
		"control.decisions":       per(c.decisions),
		"fleet.epochs":            per(c.fleetEpochs),
		"fleet.active_mean":       ratio(float64(c.fleetActive), float64(c.fleetEpochs)),
		"fleet.bidders_mean":      ratio(float64(c.fleetBidders), float64(c.fleetEpochs)),
		"fleet.heap_ops":          per(c.fleetHeapOps),
		"fleet.admitted":          per(c.fleetAdmitted),
		"fleet.rejected":          per(c.fleetRejected),
		"cluster.evictions":       per(c.evictions),
		"cluster.spare_task_frac": ratio(c.spareFracSum, float64(c.spareJobs)),
		"cluster.task_attempts":   per(c.taskAttempts),
		"gc.allocs_per_replay":    float64(mallocs) / n,
		"gc.alloc_mb_per_replay":  float64(allocBytes) / 1e6 / n,
		"gc.cycles_per_replay":    float64(cycles) / n,
		"cpu.samples":             float64(cpu.samples),
		"cpu.profile_s":           float64(cpu.nanos) / 1e9,
		"trace.wall_s":            median(traced),
		"trace.untraced_wall_s":   median(untraced),
		"trace.overhead_s":        median(traced) - median(untraced),
	}
	for _, l := range cpuBuckets {
		vals["cpu."+l] = ratio(float64(cpu.layer[l]), float64(cpu.nanos))
		vals["cpu."+l+"_s"] = float64(cpu.layer[l]) / 1e9 / n
	}
	fmt.Fprintf(log, "%s seed %d traced: digest %s; %d untraced replays median %.4f s, %d traced median %.4f s\n",
		w.name, o.seed, t.ref.digest, len(untraced), median(untraced), len(traced), median(traced))
	fmt.Fprintf(log, "cpu profile: %d samples, %.2f s;", cpu.samples, float64(cpu.nanos)/1e9)
	for _, l := range cpuBuckets {
		fmt.Fprintf(log, " %s %.1f%%", l, 100*vals["cpu."+l])
	}
	fmt.Fprintln(log)
	metrics, err := collect(perLayer, vals)
	return t.output(metrics), err
}

// collect pairs each defined metric with its value, failing on a metric
// missing from vals or present in vals but not defined.
func collect(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metric values for %d defined metrics", len(vals), len(defs))
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s has no value", d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// builds times the offline model builds of a traced run's set-up. A nil
// *builds (the untraced run) just makes the calls.
type builds struct {
	n     int
	total time.Duration
}

func (b *builds) time(build func() error) error {
	if b == nil {
		return build()
	}
	start := time.Now()
	err := build()
	b.n++
	b.total += time.Since(start)
	return err
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, ", ")
}
