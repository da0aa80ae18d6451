package kv

import (
	"strings"
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// TestMapGrowABAScenarioLadder replays the resize-under-traffic script across
// the protection ladder with immediate reuse: the raw guard is provably
// fooled — the stalled deleter's armed "unlink to the end of the list" is
// restored bit-for-bit after the directory doubled, so the stale commit cuts
// the new bucket's dummy (and a live binding) off the list — while a wide
// tag, LL/SC, and the detector all reject the stale unlink and count the
// near-miss.
func TestMapGrowABAScenarioLadder(t *testing.T) {
	for _, tc := range []struct {
		name       string
		prot       Protection
		tagBits    uint
		wantFooled bool
	}{
		{"raw", apps.Raw, 0, true},
		{"tag16", apps.Tagged, 16, false},
		{"llsc", apps.LLSC, 0, false},
		{"detector", apps.Detector, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := MapGrowABAScenario(shmem.NewNativeFactory(), tc.prot, tc.tagBits)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fooled != tc.wantFooled {
				t.Fatalf("fooled = %v, want %v (%s)", res.Fooled, tc.wantFooled, res.Detail)
			}
			if res.Corrupt != tc.wantFooled {
				t.Fatalf("corrupt = %v, want %v (%s)", res.Corrupt, tc.wantFooled, res.Detail)
			}
			if !tc.wantFooled && res.Guard.NearMisses == 0 {
				t.Errorf("prevented resize ABA not counted as a near-miss: %s", res.Guard)
			}
			if res.Starved {
				t.Errorf("immediate reuse starved the adversary: %s", res.Detail)
			}
			if tc.wantFooled && !strings.Contains(res.Detail, "splits=1") {
				t.Errorf("audit did not record the forced split: %s", res.Detail)
			}
		})
	}
}

// TestMapGrowReclaimPreventsScenarioWithZeroNearMisses: raw+hp and raw+epoch
// pass the resize script that raw+none provably corrupts, with zero guard
// near-misses.  Unlike the one-bucket script, BOTH reclaimers prevent by
// starvation here: the victim's two protection slots cover both freed nodes,
// the pool is at its ceiling, and the recycle leg has nowhere else to
// allocate from — so the armed link word never repeats.
func TestMapGrowReclaimPreventsScenarioWithZeroNearMisses(t *testing.T) {
	for _, rc := range []struct {
		name string
		mk   reclaim.Maker
	}{
		{"hp", reclaim.NewHazard},
		{"epoch", reclaim.NewEpoch},
	} {
		t.Run("raw+"+rc.name, func(t *testing.T) {
			res, err := MapGrowABAScenario(shmem.NewNativeFactory(), apps.Raw, 0, apps.WithReclaimer(rc.mk))
			if err != nil {
				t.Fatal(err)
			}
			if res.Fooled || res.Corrupt {
				t.Fatalf("fooled=%v corrupt=%v (%s)", res.Fooled, res.Corrupt, res.Detail)
			}
			if res.Guard.NearMisses != 0 {
				t.Errorf("guard near-misses = %d, want 0 (prevention, not detection)", res.Guard.NearMisses)
			}
			if !res.Starved {
				t.Errorf("recycle leg did not starve at the ceiling: %s", res.Detail)
			}
		})
	}
	// The control arm: the pass-through reclaimer reproduces the corruption.
	res, err := MapGrowABAScenario(shmem.NewNativeFactory(), apps.Raw, 0, apps.WithReclaimer(reclaim.NewNone))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fooled || !res.Corrupt {
		t.Errorf("raw+none: fooled=%v corrupt=%v, want the corruption back (%s)", res.Fooled, res.Corrupt, res.Detail)
	}
}
