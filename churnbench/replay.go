package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
)

// replayDigest applies a schedule one operation at a time to the
// reference engine (internal/core) and fingerprints the result. The
// distributed network must heal to exactly this graph: dist runs
// operations concurrently but promises the serialized outcome. Ops the
// coalescing queue cancelled (by submission sequence number) are
// skipped, which makes it the effective replay.
func replayDigest(sch *Schedule, cancelled map[int]bool) (string, error) {
	e := core.NewEngine(sch.G0)
	seq := 0
	for _, st := range sch.Steps {
		for _, op := range st.Ops {
			seq++
			if cancelled[seq] {
				continue
			}
			var err error
			if op.Kind == dist.OpInsert {
				err = e.Insert(op.V, op.Nbrs)
			} else {
				err = e.Delete(op.V)
			}
			if err != nil {
				return "", fmt.Errorf("replay op %d (%v): %w", seq, op, err)
			}
		}
	}
	return digest(e.Physical(), e.GPrime()), nil
}
