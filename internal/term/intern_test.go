package term

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternConcurrent hammers the global intern table from many
// goroutines with overlapping vocabularies — the access pattern of the
// service's worker pool, where machines on different workers intern
// while others publish new snapshots. Every goroutine must see the same
// id for the same name, ids must stay dense, and Name must round-trip
// whatever Intern issued. Run under -race this also checks the
// snapshot-swap publication itself.
func TestInternConcurrent(t *testing.T) {
	const (
		workers = 8
		names   = 200
	)
	// A mix of names certainly present already (interned here, up
	// front) and names first seen mid-race.
	warm := make([]Sym, names/2)
	for i := range warm {
		warm[i] = Intern(fmt.Sprintf("warm_%d_%d", i, len(warm)))
	}
	results := make([][]Sym, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cache SymCache // per-goroutine, like each machine's
			syms := make([]Sym, names)
			for i := 0; i < names; i++ {
				name := fmt.Sprintf("race_%d", i)
				if w%2 == 0 {
					syms[i] = Intern(name)
				} else {
					syms[i] = cache.Intern(name)
				}
				if got := syms[i].Name(); got != name {
					t.Errorf("Sym(%d).Name() = %q, want %q", syms[i], got, name)
					return
				}
			}
			results[w] = syms
		}()
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		for i, s := range results[w] {
			if s != results[0][i] {
				t.Fatalf("worker %d interned race_%d as %d, worker 0 as %d", w, i, s, results[0][i])
			}
		}
	}
	for i, s := range warm {
		if got := Intern(fmt.Sprintf("warm_%d_%d", i, len(warm))); got != s {
			t.Errorf("warm symbol %d re-interned as %d, was %d", i, got, s)
		}
	}
	// Ids are dense: every id below the table size names something.
	n := InternedSyms()
	if n < names+len(warm) {
		t.Fatalf("InternedSyms() = %d, want >= %d", n, names+len(warm))
	}
	for s := Sym(0); s < Sym(n); s++ {
		if s.Name() == "" {
			t.Fatalf("dense id %d has no name", s)
		}
	}
	if Sym(n).Name() != "" {
		t.Errorf("never-issued id %d has name %q", n, Sym(n).Name())
	}
}
