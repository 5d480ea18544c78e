package cluster

import "testing"

// Exports for the external differential test (refpass_fleet_test.go), which
// replays fleet workloads through reusable engines: the fleet package
// imports this one, so only an external test package can drive both.

// PassDiff is passDiff for the external test package.
type PassDiff = passDiff

// NewPassDiff starts a differential replay; see passDiff.
func NewPassDiff(t testing.TB, name string, guard bool) *PassDiff { return newPassDiff(t, name, guard) }

// Reference makes every pass of e's next run the retired reference pass and
// records its dispatches.
func (d *passDiff) Reference(e *Engine) { e.c.hooks = d.referenceHooks() }

// Incremental makes e's next run use the incremental pass, diffing each
// dispatch against the recorded reference and checking each pass's work.
func (d *passDiff) Incremental(e *Engine) { e.c.hooks = d.incrementalHooks() }

// Done checks both replays dispatched the same number of times.
func (d *passDiff) Done() { d.done() }
