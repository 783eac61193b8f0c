package engine

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors for resource-limit violations and external
// cancellation. Every error returned by Solve/Query for one of these
// conditions wraps the corresponding sentinel, so callers select on the
// cause with errors.Is:
//
//	if errors.Is(err, engine.ErrDeadline) { ... }
//
// The limit sentinels correspond to the three Limits fields; the
// cancellation sentinels to the two ways a context.Context ends.
var (
	// ErrDepthLimit: non-tabled resolution exceeded Limits.MaxDepth
	// (usually a looping non-tabled predicate).
	ErrDepthLimit = errors.New("engine: depth limit exceeded")
	// ErrAnswerLimit: the tables accumulated more than Limits.MaxAnswers
	// distinct answers.
	ErrAnswerLimit = errors.New("engine: answer limit exceeded")
	// ErrSubgoalLimit: more than Limits.MaxSubgoals distinct tabled
	// calls were recorded.
	ErrSubgoalLimit = errors.New("engine: subgoal limit exceeded")
	// ErrNonResumable: a tabled call whose continuation cannot be
	// suspended — inside \+, an if-then-else condition, a collecting or
	// committing builtin (findall, forall, aggregate_all, once), or ahead
	// of a cut — reached a table that stays incomplete because it depends
	// on a producer still running (typically unstratified negation).
	// The engine refuses rather than answer from a partial table.
	ErrNonResumable = errors.New("engine: tabled call in a non-resumable context depends on an incomplete table")
	// ErrCanceled: the machine's context was canceled mid-evaluation.
	ErrCanceled = errors.New("engine: evaluation canceled")
	// ErrDeadline: the machine's context deadline expired mid-evaluation.
	ErrDeadline = errors.New("engine: deadline exceeded")
)

// throwErr carries err out of deep recursion; Solve's recover converts
// it back into an ordinary return value.
func (m *Machine) throwErr(err error) {
	panic(engineError{err})
}

// ctxCheckInterval is how many solve steps (solveG entries plus answer
// derivations) pass between context polls. Each step is well under a
// microsecond, so 256 keeps cancellation latency far below any
// realistic deadline while keeping ctx.Err() off the per-step hot path.
const ctxCheckInterval = 256

// SetContext installs ctx for cooperative cancellation: the solve loop
// polls it every few hundred resolution steps and aborts the evaluation
// with ErrCanceled or ErrDeadline (wrapping ctx.Err()) once it is done.
// A nil ctx disables the check. SetContext is not safe to call while a
// Solve is in progress.
func (m *Machine) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		// context.Background() and friends can never be canceled;
		// skip the polling entirely.
		ctx = nil
	}
	m.ctx = ctx
}

// CtxErr maps a finished context to the cancellation sentinels:
// ErrDeadline for deadline expiry, ErrCanceled for any other
// cancellation, nil while ctx is still live (or nil). Analyzers that do
// not run on a Machine (gaia, bddprop) use it so every analyzer in the
// system fails with the same typed errors.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrDeadline, err)
	default:
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
}

// checkCtx aborts the evaluation if the installed context has ended.
func (m *Machine) checkCtx() {
	if m.ctx == nil {
		return
	}
	if err := m.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			m.throwErr(fmt.Errorf("%w: %v", ErrDeadline, err))
		}
		m.throwErr(fmt.Errorf("%w: %v", ErrCanceled, err))
	}
}
