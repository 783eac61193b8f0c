package integration

import (
	"testing"

	"xlp/internal/corpus"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/obs"
	"xlp/internal/prop"
	"xlp/internal/strict"
)

// consumerLedger is an engine tracer that balances consumer records:
// every EvSuspend saves one, and every EvComplete reports how many its
// subgoal still held when its region completed and freed them.
type consumerLedger struct {
	saved, freed, completions int
}

func (l *consumerLedger) Emit(kind obs.EventKind, _ string, n int) {
	switch kind {
	case obs.EvSuspend:
		l.saved++
	case obs.EvComplete:
		l.freed += n
		l.completions++
	}
}

// TestOneClausePassPerSubgoal checks the answer-driven scheduler on the
// paper's workloads — the 22 corpus programs (Tables 1 and 3) and
// Table 4's depth-k programs except read — under both clause backends:
// every subgoal's clauses are resolved in exactly one pass, every
// subgoal completes, and every consumer record saved is freed by a
// completion, so none is left on a completed subgoal.
func TestOneClausePassPerSubgoal(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	type run struct {
		name    string
		analyze func(mode engine.LoadMode, tr obs.EngineTracer) (engine.Stats, error)
	}
	var runs []run
	for _, p := range corpus.LogicPrograms() {
		src := p.Source
		runs = append(runs, run{"prop/" + p.Name, func(mode engine.LoadMode, tr obs.EngineTracer) (engine.Stats, error) {
			a, err := prop.Analyze(src, prop.Options{Mode: mode, Tracer: tr})
			if err != nil {
				return engine.Stats{}, err
			}
			return a.EngineStats, nil
		}})
	}
	for _, p := range corpus.FuncPrograms() {
		src := p.Source
		runs = append(runs, run{"strict/" + p.Name, func(mode engine.LoadMode, tr obs.EngineTracer) (engine.Stats, error) {
			a, err := strict.Analyze(src, strict.Options{Mode: mode, Tracer: tr})
			if err != nil {
				return engine.Stats{}, err
			}
			return a.EngineStats, nil
		}})
	}
	for _, p := range corpus.DepthKPrograms() {
		if p.Name == "read" {
			continue // about 80 s
		}
		src := p.Source
		runs = append(runs, run{"depthk/" + p.Name, func(mode engine.LoadMode, tr obs.EngineTracer) (engine.Stats, error) {
			a, err := depthk.Analyze(src, depthk.Options{K: 1, NoSupplementary: true, Mode: mode, Tracer: tr})
			if err != nil {
				return engine.Stats{}, err
			}
			return a.EngineStats, nil
		}})
	}
	for _, r := range runs {
		for _, mode := range []engine.LoadMode{engine.LoadDynamic, engine.ModeClosure} {
			r, mode := r, mode
			name := r.name + "/interp"
			if mode == engine.ModeClosure {
				name = r.name + "/closure"
			}
			t.Run(name, func(t *testing.T) {
				var ledger consumerLedger
				st, err := r.analyze(mode, &ledger)
				if err != nil {
					t.Fatal(err)
				}
				if st.ProducerPasses != st.Subgoals || st.ProducerRuns != st.Subgoals {
					t.Errorf("%d producer runs, %d passes over %d subgoals", st.ProducerRuns, st.ProducerPasses, st.Subgoals)
				}
				if ledger.completions != st.Subgoals {
					t.Errorf("%d completions of %d subgoals", ledger.completions, st.Subgoals)
				}
				if ledger.saved != st.Suspensions || ledger.freed != ledger.saved {
					t.Errorf("%d consumer records saved (Stats: %d), %d freed at completion",
						ledger.saved, st.Suspensions, ledger.freed)
				}
			})
		}
	}
}
