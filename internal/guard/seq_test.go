package guard

import (
	"testing"

	"abadetect/internal/shmem"
)

// mkRegime builds one guard of the given regime over the native substrate.
func mkRegime(t *testing.T, r Regime, init Word) Guard {
	t.Helper()
	g, err := NewMaker(shmem.NewNativeFactory(), 2, r, 16)("g", 16, init)
	if err != nil {
		t.Fatalf("building %s guard: %v", r, err)
	}
	return g
}

// cycle runs a full A→B→A write cycle through w, restoring the initial
// value — the §1 shape that fools value comparison.
func cycle(t *testing.T, w Handle, a, b Word) {
	t.Helper()
	for _, v := range []Word{b, a} {
		w.Load()
		if !w.Commit(v) {
			t.Fatalf("uncontended commit of %d failed", v)
		}
	}
}

// TestReadConsistentTornRead injects a completed write cycle inside the
// reader's window and checks each regime's verdict: the sound regimes
// (tagged, LL/SC, detector) force a retry and finish clean on the second
// attempt, while raw validates the torn read — the §1 blindness.
func TestReadConsistentTornRead(t *testing.T) {
	for _, r := range []Regime{Tagged, LLSC, Detector} {
		g := mkRegime(t, r, 5)
		reader, _ := g.Handle(0)
		writer, _ := g.Handle(1)
		attempts := 0
		v, clean := ReadConsistent(reader, 0, func(Word) {
			attempts++
			if attempts == 1 {
				cycle(t, writer, 5, 7)
			}
		})
		if !clean || v != 5 {
			t.Errorf("%s: ReadConsistent = (%d, %v), want a clean 5", r, v, clean)
		}
		if attempts != 2 {
			t.Errorf("%s: %d attempts, want 2 (one torn, one clean)", r, attempts)
		}
	}

	// Raw alone accepts the cycle in one attempt: value-blind validation.
	g := mkRegime(t, Raw, 5)
	reader, _ := g.Handle(0)
	writer, _ := g.Handle(1)
	attempts := 0
	_, clean := ReadConsistent(reader, 0, func(Word) {
		attempts++
		if attempts == 1 {
			cycle(t, writer, 5, 7)
		}
	})
	if !clean || attempts != 1 {
		t.Fatalf("raw: attempts=%d clean=%v, want the documented single fooled attempt", attempts, clean)
	}
}

// TestReadConsistentBudget exhausts the retry budget under a perpetual
// writer and checks the clean=false fallback contract.
func TestReadConsistentBudget(t *testing.T) {
	g := mkRegime(t, Detector, 1)
	reader, _ := g.Handle(0)
	writer, _ := g.Handle(1)
	attempts := 0
	_, clean := ReadConsistent(reader, 3, func(Word) {
		attempts++
		cycle(t, writer, 1, 2)
	})
	if clean || attempts != 3 {
		t.Fatalf("attempts=%d clean=%v, want exactly 3 torn attempts and a false", attempts, clean)
	}
}
