package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/progress"
)

// cpaDigest hashes every cell of a table: how many values it was offered
// and the sorted values it retained.
func cpaDigest(c *CPA) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for ai := range c.cells {
		for bk := range c.cells[ai] {
			put(c.cells[ai][bk].Seen())
			put(int64(c.cells[ai][bk].Len()))
			for _, v := range c.cells[ai][bk].Values() {
				put(int64(v))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCPATableDigest pins the table a build produces, cell by cell, on the
// noisy profile (failures, heavy tails, reservoirs that overflow) and on
// the deterministic one. The digests were recorded with the build that
// allocated one observation slice per cell and grew every reservoir by
// append, so the chunked observations, the completion-only runs and the
// carved reservoir storage must reproduce its tables exactly.
func TestCPATableDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *CPA
		want string
	}{
		{"noisy", buildCPAWithParallelism(t, 2), "03901d8923e2136c20b3e800e4a3ea162b75a76f21e8141e36ebaa7fead54518"},
		{"deterministic", buildTestCPA(t, detProfile(t), []int{1, 3, 8, 24}), "82485be9d6e3898825df7f18fe1f71eb1a9266cdc8570b58978ceaa465896fe2"},
		{"noisy-small-cap", func() *CPA {
			p := noisyProfile(t)
			c, err := BuildCPA(p, progress.NewTotalWorkWithQ(p), CPAConfig{
				Allocs: []int{1, 4, 16}, RunsPerAlloc: 9, SampleEvery: 5 * time.Second,
				Buckets: 20, ReservoirCap: 3, Seed: 5, Parallelism: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}(), "54d9d185cc8c585e9be7779a998d0a2584faaf2a5a45cd2cf30af26d13d34d67"},
	} {
		if got := cpaDigest(tc.c); got != tc.want {
			t.Errorf("%s: table digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBuildCPAAllocsIndependentOfRuns pins the allocation-light build:
// nothing a build allocates scales with its number of (alloc, run) cells —
// no per-cell observation slice, sampling callback or label string, no
// per-reservoir struct or growth. On a build whose observations fit one
// chunk, allocations per build are therefore equal at RunsPerAlloc 2 and 8.
func TestBuildCPAAllocsIndependentOfRuns(t *testing.T) {
	p := detProfile(t)
	ind := progress.NewTotalWorkWithQ(p)
	build := func(runs int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := BuildCPA(p, ind, CPAConfig{
				Allocs:       []int{1, 2, 4, 8, 16},
				RunsPerAlloc: runs,
				SampleEvery:  10 * time.Second,
				Seed:         3,
				Parallelism:  1,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	two, eight := build(2), build(8)
	t.Logf("allocations per build: %v at RunsPerAlloc 2, %v at 8", two, eight)
	if two != eight {
		t.Errorf("BuildCPA allocates %v times at RunsPerAlloc 2 and %v at 8; want equal", two, eight)
	}
	// Allocating reservoirs one by one would cost 5 allocations x 101
	// buckets before any growth; a count well below that shows the carved
	// storage is in place. Debug builds add their audits' allocations.
	if !invariant.Debug && eight > 100 {
		t.Errorf("BuildCPA allocates %v times per build, want at most 100", eight)
	}
}
