package serve

import (
	"time"

	"spanner/internal/artifact"
)

// ApplyDelta patches the live snapshot's artifact with a delta and installs
// the result as a new generation, with the same zero-dropped-query
// guarantee as Swap: evaluations already running finish on the old
// snapshot, evaluations starting afterwards see the new one, and cache
// partitions reset on their first use under the new generation.
//
// Applies are serialized: a delta binds to a specific base generation
// (artifact.ErrBaseMismatch otherwise), so two concurrent deltas for the
// same base cannot both land. A Swap that installs a generation while the
// delta is being applied wins: the patched result is discarded and
// ApplyDelta returns artifact.ErrBaseMismatch. The engine keeps serving
// the old generation for the whole patch-and-rebuild, so update cost never
// blocks queries.
func (e *Engine) ApplyDelta(d *artifact.Delta) (int64, error) {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	start := time.Now()
	base := e.snap.Load()
	next, err := d.Apply(base.Art)
	if err != nil {
		e.updateErrs.Inc()
		return 0, err
	}
	if h := e.applyHook; h != nil {
		h()
	}
	gen, err := e.install(newSnapshot(next), base)
	if err != nil {
		e.updateErrs.Inc()
		return 0, err
	}
	e.updates.Inc()
	e.updateUS.Observe(time.Since(start).Microseconds())
	for i := range d.Segments {
		st := d.Segments[i].Stats
		e.updAdmitted.Add(st.Admitted)
		e.updFiltered.Add(st.Filtered)
		e.updRepaired.Add(st.Repaired)
		e.updRebuilds.Add(st.Rebuilds)
	}
	return gen, nil
}
