package dist

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Differential equivalence for batched deletions: dist.DeleteBatch
// overlaps repairs of independent regions, core.DeleteBatch applies
// the same deletions sequentially in canonical order, and the healed
// graphs must be identical. Batch tests run in the parallel delivery
// mode by default — concurrent repairs are the execution model the
// batch pipeline exists for.

// pickBatch draws k distinct live nodes.
func pickBatch(live []NodeID, rng *rand.Rand, k int) []NodeID {
	if k > len(live) {
		k = len(live)
	}
	out := make([]NodeID, 0, k)
	for _, idx := range rng.Perm(len(live))[:k] {
		out = append(out, live[idx])
	}
	return out
}

// replayBatches drives random insert/batch-delete schedules through a
// fresh dist.Simulation (parallel delivery) and core.Engine over g0,
// asserting equal healed graphs after every operation and full
// revalidation at the end.
func replayBatches(t *testing.T, g0 *graph.Graph, ops, maxK int, seed int64) {
	t.Helper()
	s := NewSimulation(g0)
	s.SetParallel(true)
	e := core.NewEngine(g0)
	rng := rand.New(rand.NewSource(seed))
	nextID := NodeID(20_000)

	for i := 0; i < ops; i++ {
		live := s.LiveNodes()
		if len(live) == 0 {
			break
		}
		if rng.Float64() < 0.25 {
			v := nextID
			nextID++
			k := 1 + rng.Intn(3)
			if k > len(live) {
				k = len(live)
			}
			var nbrs []NodeID
			for _, idx := range rng.Perm(len(live))[:k] {
				nbrs = append(nbrs, live[idx])
			}
			if err := s.Insert(v, nbrs); err != nil {
				t.Fatalf("op %d: dist insert: %v", i, err)
			}
			if err := e.Insert(v, nbrs); err != nil {
				t.Fatalf("op %d: core insert: %v", i, err)
			}
		} else {
			batch := pickBatch(live, rng, 1+rng.Intn(maxK))
			if err := s.DeleteBatch(batch); err != nil {
				t.Fatalf("op %d: dist delete batch %v: %v", i, batch, err)
			}
			if err := e.DeleteBatch(batch); err != nil {
				t.Fatalf("op %d: core delete batch %v: %v", i, batch, err)
			}
			bs := s.LastBatch()
			if bs.Batch != len(batch) {
				t.Fatalf("op %d: batch stats report %d deletions, want %d", i, bs.Batch, len(batch))
			}
		}
		if !s.Physical().Equal(e.Physical()) {
			t.Fatalf("op %d: healed graphs diverge (dist %v vs core %v)",
				i, s.Physical(), e.Physical())
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("dist verify: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("core invariants: %v", err)
	}
	if !s.GPrime().Equal(e.GPrime()) {
		t.Fatal("G' diverged")
	}
}

func TestBatchEquivalenceWithCore(t *testing.T) {
	topologies := []struct {
		name string
		gen  func(rng *rand.Rand) *graph.Graph
		ops  int
	}{
		{"star", func(*rand.Rand) *graph.Graph { return graph.Star(24) }, 12},
		{"path", func(*rand.Rand) *graph.Graph { return graph.Path(24) }, 12},
		{"grid", func(*rand.Rand) *graph.Graph { return graph.Grid(5, 5) }, 12},
		{"gnp", func(rng *rand.Rand) *graph.Graph { return graph.GNP(32, 0.15, rng) }, 14},
		{"powerlaw", func(rng *rand.Rand) *graph.Graph { return graph.PreferentialAttachment(28, 2, rng) }, 14},
	}
	for _, topo := range topologies {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				g0 := topo.gen(rand.New(rand.NewSource(300 + seed)))
				replayBatches(t, g0, topo.ops, 4, 13*seed+3)
			}
		})
	}
}

// TestBatchGrindsDown deletes the whole network in batches, hitting
// the late game where most of the graph is Reconstruction Trees and
// almost every batch conflicts internally.
func TestBatchGrindsDown(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g0 := graph.GNP(28, 0.2, rng)
	s := NewSimulation(g0)
	s.SetParallel(true)
	e := core.NewEngine(g0)
	for {
		live := s.LiveNodes()
		if len(live) == 0 {
			break
		}
		batch := pickBatch(live, rng, 1+rng.Intn(5))
		if err := s.DeleteBatch(batch); err != nil {
			t.Fatalf("dist delete batch %v: %v", batch, err)
		}
		if err := e.DeleteBatch(batch); err != nil {
			t.Fatalf("core delete batch %v: %v", batch, err)
		}
		if !s.Physical().Equal(e.Physical()) {
			t.Fatalf("after batch %v: healed graphs diverge", batch)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("after batch %v: %v", batch, err)
		}
	}
}

// TestBatchOfOneBitIdentical runs the same deletion through Delete on
// one simulation and DeleteBatch on an identical twin: the recovery
// stats — message counts, rounds, words, everything — and the healed
// graphs must match exactly, because a batch of one IS the Delete
// path.
func TestBatchOfOneBitIdentical(t *testing.T) {
	g0 := graph.PreferentialAttachment(32, 2, rand.New(rand.NewSource(21)))
	a := NewSimulation(g0)
	b := NewSimulation(g0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		live := a.LiveNodes()
		if len(live) == 0 {
			break
		}
		v := live[rng.Intn(len(live))]
		if err := a.Delete(v); err != nil {
			t.Fatalf("delete %d: %v", v, err)
		}
		if err := b.DeleteBatch([]NodeID{v}); err != nil {
			t.Fatalf("delete batch [%d]: %v", v, err)
		}
		if a.LastRecovery() != b.LastRecovery() {
			t.Fatalf("delete %d: recovery stats diverge: %+v vs %+v",
				v, a.LastRecovery(), b.LastRecovery())
		}
		bs := b.LastBatch()
		rs := a.LastRecovery()
		if bs.Messages != rs.Messages || bs.Rounds != rs.Rounds || bs.TotalWords != rs.TotalWords {
			t.Fatalf("delete %d: batch stats %+v disagree with recovery stats %+v", v, bs, rs)
		}
		if !a.Physical().Equal(b.Physical()) {
			t.Fatalf("delete %d: healed graphs diverge", v)
		}
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchValidationAtomic: a batch containing a dead node or a
// duplicate must reject without touching anything.
func TestBatchValidationAtomic(t *testing.T) {
	g0 := graph.Grid(4, 4)
	s := NewSimulation(g0)
	if err := s.Delete(5); err != nil {
		t.Fatal(err)
	}
	before := s.Physical()
	if err := s.DeleteBatch([]NodeID{1, 5, 2}); err == nil {
		t.Fatal("batch containing a dead node accepted")
	}
	if err := s.DeleteBatch([]NodeID{1, 2, 1}); err == nil {
		t.Fatal("batch containing a duplicate accepted")
	}
	if !s.Physical().Equal(before) {
		t.Fatal("rejected batch mutated the network")
	}
	if err := s.DeleteBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// disjointStars builds k stars of degree d joined in a cycle by their
// outermost ray tips, so the graph is connected but the k hubs have
// vertex-disjoint neighborhoods at distance ≥ 4 from each other:
// deleting all hubs in one batch damages k fully independent regions.
func disjointStars(k, d int) (*graph.Graph, []NodeID) {
	g := graph.New()
	hubs := make([]NodeID, k)
	var bridges []NodeID
	id := NodeID(0)
	for i := 0; i < k; i++ {
		hub := id
		id++
		g.AddNode(hub)
		hubs[i] = hub
		var firstRay NodeID
		for j := 0; j < d; j++ {
			ray := id
			id++
			g.AddEdge(hub, ray)
			if j == 0 {
				firstRay = ray
			}
		}
		// A two-hop chain off the first ray keeps the inter-star
		// bridges far away from every hub's neighborhood.
		a, b := id, id+1
		id += 2
		g.AddEdge(firstRay, a)
		g.AddEdge(a, b)
		bridges = append(bridges, b)
	}
	for i := range bridges {
		g.AddEdge(bridges[i], bridges[(i+1)%len(bridges)])
	}
	return g, hubs
}

// TestDisjointBatchRoundScaling is the throughput claim: deleting k
// hubs with vertex-disjoint damaged regions in one batch must cost at
// most twice the rounds of the most expensive single hub deletion —
// the repairs overlap instead of running back to back — and the batch
// must resolve them as k independent groups in one wave.
func TestDisjointBatchRoundScaling(t *testing.T) {
	const d = 8
	single := 0
	{
		g, hubs := disjointStars(1, d)
		s := NewSimulation(g)
		s.SetParallel(true)
		if err := s.Delete(hubs[0]); err != nil {
			t.Fatal(err)
		}
		single = s.LastRecovery().Rounds
		if single == 0 {
			t.Fatal("single hub deletion reported zero rounds")
		}
	}
	for _, k := range []int{2, 4, 8, 16} {
		g, hubs := disjointStars(k, d)
		s := NewSimulation(g)
		s.SetParallel(true)
		e := core.NewEngine(g)
		if err := s.DeleteBatch(hubs); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := e.DeleteBatch(hubs); err != nil {
			t.Fatalf("k=%d: core: %v", k, err)
		}
		bs := s.LastBatch()
		if bs.Groups != k {
			t.Errorf("k=%d: %d conflict groups, want %d independent ones (conflicts: %d)",
				k, bs.Groups, k, bs.Conflicts)
		}
		if bs.Waves != 1 {
			t.Errorf("k=%d: %d waves, want 1", k, bs.Waves)
		}
		// Repairs of disjoint regions must overlap.
		if exec := bs.Rounds; exec > 2*single {
			t.Errorf("k=%d: batch took %d rounds, want <= 2x single deletion (%d): disjoint repairs must overlap",
				k, exec, single)
		}
		if !s.Physical().Equal(e.Physical()) {
			t.Fatalf("k=%d: healed graphs diverge", k)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestCollidingBatchSerializes deletes a hub together with two of its
// direct neighbors: all three repairs share a region, so the conflict
// detector must fold them into one group and serialize three waves —
// and the result must still match the sequential reference.
func TestCollidingBatchSerializes(t *testing.T) {
	g0 := graph.Star(16)
	s := NewSimulation(g0)
	s.SetParallel(true)
	e := core.NewEngine(g0)
	batch := []NodeID{0, 1, 2}
	if err := s.DeleteBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteBatch(batch); err != nil {
		t.Fatal(err)
	}
	bs := s.LastBatch()
	if bs.Groups != 1 {
		t.Errorf("hub plus two rays formed %d groups, want 1", bs.Groups)
	}
	if bs.Waves != 3 {
		t.Errorf("hub plus two rays ran %d waves, want 3", bs.Waves)
	}
	if !s.Physical().Equal(e.Physical()) {
		t.Fatal("healed graphs diverge")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteBatchIsSubmitDrain pins DeleteBatch to its definition: the
// same deletions submitted in ascending order to the open-loop engine
// and drained on a twin must leave identical physical graphs and G′
// and cost exactly the same messages and rounds — on a hub-plus-rays
// burst whose footprints all overlap and on disjoint stars whose
// footprints are independent.
func TestDeleteBatchIsSubmitDrain(t *testing.T) {
	stars, hubs := disjointStars(4, 8)
	for _, tc := range []struct {
		name  string
		g0    *graph.Graph
		batch []NodeID
	}{
		{"hub+rays", graph.Star(16), []NodeID{2, 0, 1}},
		{"disjoint-stars", stars, []NodeID{hubs[3], hubs[1], hubs[0], hubs[2]}},
	} {
		a := NewSimulation(tc.g0)
		b := NewSimulation(tc.g0)
		if err := a.DeleteBatch(tc.batch); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		asc := append([]NodeID(nil), tc.batch...)
		sort.Slice(asc, func(i, j int) bool { return asc[i] < asc[j] })
		ops := make([]Op, len(asc))
		for i, v := range asc {
			ops[i] = Op{Kind: OpDelete, V: v}
		}
		b.net.ResetStats()
		if err := b.Submit(ops...); err != nil {
			t.Fatalf("%s: submit: %v", tc.name, err)
		}
		if err := b.Drain(); err != nil {
			t.Fatalf("%s: drain: %v", tc.name, err)
		}
		bs, st := a.LastBatch(), b.net.Stats()
		if bs.Messages != st.Messages || bs.Rounds != st.Rounds {
			t.Errorf("%s: DeleteBatch cost %d msgs / %d rounds, submit+drain %d / %d",
				tc.name, bs.Messages, bs.Rounds, st.Messages, st.Rounds)
		}
		if !a.Physical().Equal(b.Physical()) {
			t.Errorf("%s: physical graphs diverge", tc.name)
		}
		if !a.GPrime().Equal(b.GPrime()) {
			t.Errorf("%s: G′ diverges", tc.name)
		}
		if err := a.Verify(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestBatchSequentialVsParallelDelivery: both delivery modes must
// produce identical graphs and stats for the same batch schedule.
func TestBatchSequentialVsParallelDelivery(t *testing.T) {
	g0 := graph.PreferentialAttachment(32, 3, rand.New(rand.NewSource(31)))
	seq := NewSimulation(g0)
	par := NewSimulation(g0)
	par.SetParallel(true)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 6; i++ {
		live := seq.LiveNodes()
		if len(live) == 0 {
			break
		}
		batch := pickBatch(live, rng, 1+rng.Intn(4))
		if err := seq.DeleteBatch(batch); err != nil {
			t.Fatalf("sequential: %v", err)
		}
		if err := par.DeleteBatch(batch); err != nil {
			t.Fatalf("parallel: %v", err)
		}
		if seq.LastBatch() != par.LastBatch() {
			t.Fatalf("batch %v: stats diverge between delivery modes: %+v vs %+v",
				batch, seq.LastBatch(), par.LastBatch())
		}
		if !seq.Physical().Equal(par.Physical()) {
			t.Fatalf("batch %v: graphs diverge between delivery modes", batch)
		}
	}
}

// TestCoreBatchMatchesSequentialDeletes pins the reference semantics
// itself: DeleteBatch on the engine equals sorted one-at-a-time
// Deletes.
func TestCoreBatchMatchesSequentialDeletes(t *testing.T) {
	g0 := graph.GNP(24, 0.2, rand.New(rand.NewSource(6)))
	a := core.NewEngine(g0)
	b := core.NewEngine(g0)
	batch := []NodeID{7, 3, 19, 11}
	if err := a.DeleteBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, v := range []NodeID{3, 7, 11, 19} {
		if err := b.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Physical().Equal(b.Physical()) {
		t.Fatal("core batch diverges from canonical-order sequential deletes")
	}
	if a.LastBatchRepair().Batch != 4 {
		t.Fatalf("batch stats: %+v", a.LastBatchRepair())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
