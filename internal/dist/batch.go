package dist

import (
	"fmt"
	"sort"
)

// Batched deletions.
//
// The paper repairs one deletion at a time; under churn they arrive in
// bursts. DeleteBatch submits the whole burst to the open-loop engine
// in canonical (ascending-ID) order and drains it: footprint admission
// (deleteRegion + regionBlocked, see engine.go) runs the repairs of
// disjoint regions concurrently, so k disjoint deletions heal in
// roughly the rounds of one, while a repair whose region overlaps an
// earlier member's waits for it and is launched by that repair's
// finishing leader. The reference semantics is core.Engine.DeleteBatch
// — apply the deletions one at a time in ascending order — and the
// differential tests assert the two produce identical healed graphs.

// BatchStats reports the measured cost of one DeleteBatch call.
type BatchStats struct {
	// Batch is the number of deletions. Groups, Waves and Conflicts
	// describe how the members' pre-batch footprints overlap: Conflicts
	// counts the overlapping member pairs, Groups the connected
	// components they form, and Waves the size of the largest one.
	Batch     int
	Groups    int
	Waves     int
	Conflicts int
	// ClaimMessages is always 0: conflicts are found driver-side by
	// footprint admission, with no in-band claim traffic. The field is
	// kept so existing readers still compile.
	ClaimMessages int
	// Messages, Rounds, TotalWords, MaxWords and MaxSentByNode cover
	// the whole batch.
	Messages      int
	Rounds        int
	TotalWords    int
	MaxWords      int
	MaxSentByNode int
	// QueuedWords, MaxEdgeBacklog and CongestionRounds mirror the
	// simulator's congestion counters over the whole batch (zero under
	// unlimited bandwidth).
	QueuedWords      int
	MaxEdgeBacklog   int
	CongestionRounds int
	// ElectionRounds / SyncRounds and the corresponding message counts
	// expose the batch's in-band coordination cost: leader-election
	// tournaments and termination-detection traffic across every repair.
	ElectionRounds   int
	SyncRounds       int
	ElectionMessages int
	SyncMessages     int
}

// LastBatch returns the cost of the most recent DeleteBatch call.
func (s *Simulation) LastBatch() BatchStats { return s.lastBatch }

// DeleteBatch removes every listed processor and repairs the damage,
// overlapping the repairs of independent regions. It is Delete for k
// nodes at once: the members are submitted in ascending order and the
// engine is drained, so the result equals deleting them one at a time
// in ascending order, and a batch of one is exactly Delete (its cost
// lands in LastRecovery too). Validation is atomic: either the whole
// batch is applied or no node is touched.
func (s *Simulation) DeleteBatch(vs []NodeID) error {
	if err := s.requireIdle("delete batch"); err != nil {
		return err
	}
	batch, err := s.validateBatch(vs)
	if err != nil {
		return err
	}
	defer s.beginBlocking()()
	if len(batch) == 0 {
		s.lastBatch = BatchStats{}
		return nil
	}

	regions := make([]map[NodeID]struct{}, len(batch))
	for i, v := range batch {
		regions[i] = s.deleteRegion(v)
	}
	conflicts := make(map[[2]NodeID]struct{})
	for i := range batch {
		for j := i + 1; j < len(batch); j++ {
			if overlap(regions[i], regions[j]) {
				conflicts[[2]NodeID{batch[i], batch[j]}] = struct{}{}
			}
		}
	}
	groups := groupBatch(batch, conflicts)
	waves := 0
	for _, g := range groups {
		waves = max(waves, len(g))
	}

	st, err := s.drainDeletes(batch)
	if err != nil {
		return fmt.Errorf("dist: delete batch: %w", err)
	}
	s.lastBatch = BatchStats{
		Batch:            len(batch),
		Groups:           len(groups),
		Waves:            waves,
		Conflicts:        len(conflicts),
		Messages:         st.Messages,
		Rounds:           st.Rounds,
		TotalWords:       st.TotalWords,
		MaxWords:         st.MaxWords,
		MaxSentByNode:    st.MaxSentByNode,
		QueuedWords:      st.QueuedWords,
		MaxEdgeBacklog:   st.MaxEdgeBacklog,
		CongestionRounds: st.CongestionRounds,
		ElectionRounds:   st.ElectionRounds,
		SyncRounds:       st.SyncRounds,
		ElectionMessages: st.ElectionMessages,
		SyncMessages:     st.SyncMessages,
	}
	s.emit(Event{Kind: EventBatchDone, Batch: s.lastBatch})
	return nil
}

// validateBatch checks the batch atomically — every node live, no
// duplicates — and returns it in canonical ascending order.
func (s *Simulation) validateBatch(vs []NodeID) ([]NodeID, error) {
	batch := append([]NodeID(nil), vs...)
	sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
	for i, v := range batch {
		if i > 0 && batch[i-1] == v {
			return nil, fmt.Errorf("dist: delete batch: duplicate node %d", v)
		}
		if !s.Alive(v) {
			return nil, fmt.Errorf("dist: delete batch: node %d is not a live node", v)
		}
	}
	return batch, nil
}

// groupBatch partitions the batch into conflict groups (connected
// components of the conflict pairs), each group sorted ascending —
// the canonical serialization order — and the groups ordered by their
// smallest member.
func groupBatch(batch []NodeID, conflicts map[[2]NodeID]struct{}) [][]NodeID {
	parent := make(map[NodeID]NodeID, len(batch))
	for _, v := range batch {
		parent[v] = v
	}
	var find func(v NodeID) NodeID
	find = func(v NodeID) NodeID {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	for pair := range conflicts {
		a, b := find(pair[0]), find(pair[1])
		if a != b {
			if a > b {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	members := make(map[NodeID][]NodeID)
	for _, v := range batch { // batch is sorted, so groups come out sorted
		r := find(v)
		members[r] = append(members[r], v)
	}
	roots := make([]NodeID, 0, len(members))
	for r := range members {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	groups := make([][]NodeID, 0, len(roots))
	for _, r := range roots {
		groups = append(groups, members[r])
	}
	return groups
}
