package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dist"
	"repro/internal/graph"
)

// Step is one move of a schedule: Gap rounds of ticking (open loop
// only), then Ops submitted back to back. In the blocking loop a step
// is either one insert or one burst of deletions (a burst of one runs
// through Delete, longer bursts through DeleteBatch).
type Step struct {
	Gap int
	Ops []dist.Op
}

// Schedule is a workload's complete input: the initial topology and
// the operation sequence. It is a pure function of (workload, seed).
type Schedule struct {
	G0    *graph.Graph
	Steps []Step
	Ops   int // total operations across all steps
}

// genState tracks the virtual graph G′ the schedule induces. G′ keeps
// every edge ever inserted, so an insert's preferential weight is its
// target's G′ degree; only liveness changes on delete. Because the
// state depends only on the op sequence, every op is valid under the
// serialized replay that the engine's semantics promise.
type genState struct {
	rng    *rand.Rand
	live   []graph.NodeID
	pos    map[graph.NodeID]int // index in live
	weight fenwick              // G′ degree of live nodes, 0 for dead
	deg    []int                // G′ degree by id
	next   graph.NodeID
}

func newGenState(g0 *graph.Graph, capacity int, rng *rand.Rand) *genState {
	st := &genState{
		rng:    rng,
		pos:    make(map[graph.NodeID]int, g0.NumNodes()),
		weight: newFenwick(capacity),
		deg:    make([]int, capacity),
	}
	for _, v := range g0.Nodes() {
		st.pos[v] = len(st.live)
		st.live = append(st.live, v)
		st.deg[v] = g0.Degree(v)
		st.weight.add(int(v), st.deg[v])
		if v >= st.next {
			st.next = v + 1
		}
	}
	return st
}

// insert attaches a fresh node to k distinct live nodes drawn
// preferentially by G′ degree.
func (st *genState) insert(k int) dist.Op {
	nbrs := make([]graph.NodeID, 0, k)
	for len(nbrs) < k {
		x := graph.NodeID(st.weight.find(st.rng.Intn(st.weight.total())))
		dup := false
		for _, y := range nbrs {
			dup = dup || y == x
		}
		if !dup {
			nbrs = append(nbrs, x)
		}
	}
	v := st.next
	st.next++
	for _, x := range nbrs {
		st.deg[x]++
		st.weight.add(int(x), 1)
	}
	st.deg[v] = k
	st.weight.add(int(v), k)
	st.pos[v] = len(st.live)
	st.live = append(st.live, v)
	return dist.Op{Kind: dist.OpInsert, V: v, Nbrs: nbrs}
}

// remove deletes a live node: v when given, else a uniform live node.
func (st *genState) remove(v graph.NodeID, pick bool) dist.Op {
	if pick {
		v = st.live[st.rng.Intn(len(st.live))]
	}
	i := st.pos[v]
	last := st.live[len(st.live)-1]
	st.live[i] = last
	st.pos[last] = i
	st.live = st.live[:len(st.live)-1]
	delete(st.pos, v)
	st.weight.add(int(v), -st.deg[v])
	return dist.Op{Kind: dist.OpDelete, V: v}
}

// Schedule shape shared by every workload.
const (
	// scheduleOps is the length of one schedule in operations.
	scheduleOps = 1000
	// insertP is the open loop's share of inserts.
	insertP = 0.45
	// maxGap is the open loop's largest gap in rounds between steps.
	maxGap = 2
)

// Generate builds a schedule of at least ops operations of workload w
// for seed. It runs before any timing starts and touches no network.
func Generate(w Workload, ops int, seed int64) (*Schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	g0 := graph.PreferentialAttachment(w.N, 3, rng)
	// Every op can mint at most one node id.
	st := newGenState(g0, g0.NumNodes()+ops+1, rng)
	sch := &Schedule{G0: g0}
	for sch.Ops < ops {
		if len(st.live) < 16 {
			return nil, fmt.Errorf("schedule %s seed %d: network shrank to %d live nodes", w.Name, seed, len(st.live))
		}
		var step Step
		if w.Blocking {
			// The paper's alternating loop: an insert, then a burst.
			if len(sch.Steps)%2 == 0 {
				step.Ops = []dist.Op{st.insert(2)}
			} else {
				burst := 1 + rng.Intn(w.MaxBurst)
				for i := 0; i < burst; i++ {
					step.Ops = append(step.Ops, st.remove(0, true))
				}
				// DeleteBatch is specified as the ascending serial
				// order; listing the burst that way makes the schedule
				// its own serialized replay.
				sort.Slice(step.Ops, func(i, j int) bool { return step.Ops[i].V < step.Ops[j].V })
			}
		} else {
			step.Gap = rng.Intn(maxGap + 1)
			if rng.Float64() < insertP {
				ins := st.insert(2)
				step.Ops = []dist.Op{ins}
				if w.FlapP > 0 && rng.Float64() < w.FlapP {
					step.Ops = append(step.Ops, st.remove(ins.V, false))
				}
			} else {
				step.Ops = []dist.Op{st.remove(0, true)}
			}
		}
		sch.Ops += len(step.Ops)
		sch.Steps = append(sch.Steps, step)
	}
	return sch, nil
}

// fenwick is a binary indexed tree over non-negative integer weights,
// sampling an index with probability proportional to its weight.
type fenwick struct {
	tree []int
	sum  int
}

func newFenwick(n int) fenwick { return fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	f.sum += delta
	for i++; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

func (f *fenwick) total() int { return f.sum }

// find returns the smallest index whose prefix sum exceeds r.
func (f *fenwick) find(r int) int {
	pos := 0
	step := 1
	for step*2 < len(f.tree) {
		step *= 2
	}
	for ; step > 0; step /= 2 {
		if next := pos + step; next < len(f.tree) && f.tree[next] <= r {
			pos = next
			r -= f.tree[next]
		}
	}
	return pos
}
