package abadetect

import (
	"runtime"
	"sync"
	"testing"
)

// TestNewMapAcrossRegimesAndReclaimers is the public acceptance grid: the
// map constructs and runs under every protection regime × every reclamation
// scheme, the sound cells audit clean under concurrent churn, and the
// metrics plumbing (guards, free list, reclaimer ledger) is visible through
// the public API.  raw+none is the deliberate §1 victim: it must run, and
// its audit is reported, not asserted clean.
func TestNewMapAcrossRegimesAndReclaimers(t *testing.T) {
	regimes := []struct {
		name string
		prot Protection
	}{
		{"raw", ProtectionRaw},
		{"tagged", ProtectionTagged},
		{"llsc", ProtectionLLSC},
		{"detector", ProtectionDetector},
	}
	for _, re := range regimes {
		for _, scheme := range []string{"none", "hp", "epoch"} {
			t.Run(re.name+"+"+scheme, func(t *testing.T) {
				const n = 4
				m, err := NewMap(n, 32, WithProtection(re.prot), WithReclamation(scheme))
				if err != nil {
					t.Fatal(err)
				}
				if m.Protection() != re.prot {
					t.Fatalf("protection = %v, want %v", m.Protection(), re.prot)
				}
				sound := re.prot != ProtectionRaw || scheme != "none"
				var wg sync.WaitGroup
				fail := make(chan string, n)
				for pid := 0; pid < n; pid++ {
					h, err := m.Handle(pid)
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(pid int, h *MapHandle) {
						defer wg.Done()
						for i := 0; i < 800; i++ {
							k := Word(pid)<<16 | Word(i%4)
							v := Word(i)
							for !h.Put(k, v) {
								runtime.Gosched()
							}
							if sound {
								if got, ok := h.Get(k); !ok || got != v {
									fail <- "lost own binding"
									return
								}
								if !h.Delete(k) {
									fail <- "lost own delete"
									return
								}
							} else {
								h.Get(k)
								h.Delete(k)
							}
						}
					}(pid, h)
				}
				wg.Wait()
				close(fail)
				for msg := range fail {
					t.Fatal(msg)
				}
				a := m.Audit()
				if a.Reclaimer != scheme {
					t.Errorf("audit reclaimer = %q, want %q", a.Reclaimer, scheme)
				}
				if sound && a.Corrupt {
					t.Errorf("sound cell corrupted: %s", a.Detail)
				}
				if scheme != "none" && a.Retired == 0 {
					t.Error("reclaimer ledger empty after churn")
				}
				if gm := m.GuardMetrics(); gm.Commits == 0 {
					t.Error("guards recorded no commits")
				}
			})
		}
	}
}

// TestNewMapOptionPlumbing checks the option surface the other structures
// share: backends, guard implementations, the guarded pool, and the
// tag-width validation.
func TestNewMapOptionPlumbing(t *testing.T) {
	m, err := NewMap(2, 8,
		WithBackend(SlabBackend()),
		WithProtection(ProtectionLLSC), WithGuardImpl("constant"),
		WithGuardedPool())
	if err != nil {
		t.Fatal(err)
	}
	if m.Footprint().Objects() == 0 {
		t.Error("empty footprint")
	}
	if m.Buckets() < 1 {
		t.Error("no buckets")
	}
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Put(1, 2) {
		t.Fatal("put failed")
	}
	if fm := m.FreelistMetrics(); fm.Commits == 0 {
		t.Error("guarded free list recorded no commits")
	}
	if _, err := NewMap(2, 8, WithTagBits(0)); err == nil {
		t.Error("want error for a zero-width tag")
	}
	if _, err := NewMap(2, 8, WithProtection(ProtectionTagged), WithTagBits(64)); err == nil {
		t.Error("want error for a tag that cannot pack beside the link word")
	}
	if _, err := NewMap(2, 8, WithProtection(ProtectionDetector), WithGuardImpl("fig4")); err == nil {
		t.Error("want error for a detection-only guard behind a committing structure")
	}
}

// TestMapFootprintFormula pins the map's m(n) at the default LL/SC guard
// (Figure 3: one CAS word per guard): B bucket-dummy guards plus cap
// next-link guards over 2·cap key/value registers, plus the 2 resize words
// (directory size, capacity snapshot), with B = cap rounded up to a power of
// two.  At the benchmark's map-read-large shape, NewMap(8, 2^18+1024), that
// is 524,288 + 263,168 guards + 526,336 registers + 2 = 1,313,794.  A map
// built WithGrowth pays the same formula at its constructed size.
func TestMapFootprintFormula(t *testing.T) {
	const n, capacity = 8, 1000
	want := 1024 + capacity + 2*capacity + 2
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"fixed", nil},
		{"growth", []Option{WithGrowth(8 * capacity)}},
	} {
		m, err := NewMap(n, capacity, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		fp := m.Footprint()
		if got := fp.Objects(); got != want {
			t.Errorf("%s: footprint %s = %d objects, want B + cap guards + 2·cap registers + 2 = %d", tc.name, fp, got, want)
		}
		if fp.Registers != 2*capacity {
			t.Errorf("%s: %d registers, want 2·cap = %d", tc.name, fp.Registers, 2*capacity)
		}
	}
}

// TestMapDeleteHooksPublic drives the experiment hooks through the public
// API: DeleteBegin logically deletes, a helping traversal may finish the
// unlink, and a stale DeleteCommit can never double-fire.
func TestMapDeleteHooksPublic(t *testing.T) {
	m, err := NewMap(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Handle(1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Put(5, 50) {
		t.Fatal("put failed")
	}
	// Uncontended: the begun delete commits.
	if _, _, found := a.DeleteBegin(5); !found {
		t.Fatal("DeleteBegin missed the binding")
	}
	if !a.DeleteCommit() {
		t.Error("uncontended DeleteCommit failed")
	}
	if a.DeleteCommit() {
		t.Error("a second DeleteCommit replayed a consumed snapshot")
	}
	// Helped: readers are wait-free and never write, so a read that passes
	// the marked node reports the miss without touching the chain; a
	// *writer's* traversal finishes the unlink, and the stalled deleter's
	// own commit must then fail instead of double-firing.
	if !a.Put(6, 60) {
		t.Fatal("put failed")
	}
	if _, _, found := a.DeleteBegin(6); !found {
		t.Fatal("DeleteBegin missed the binding")
	}
	// The logical delete already hides the binding from readers.
	if _, ok := b.Get(6); ok {
		t.Error("marked binding still visible")
	}
	if b.Delete(6) {
		t.Error("helping Delete claimed the kill it only helped unlink")
	}
	if a.DeleteCommit() {
		t.Error("DeleteCommit succeeded after a helper already unlinked the node")
	}
	if audit := m.Audit(); audit.Corrupt {
		t.Errorf("audit: %s", audit.Detail)
	}
}
