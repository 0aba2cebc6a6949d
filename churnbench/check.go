package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// stretchSources is how many seeded BFS sources the stretch gate uses.
const stretchSources = 16

// stretchCheck is the final network's stretch against the paper's
// log₂ n bound.
type stretchCheck struct {
	max, mean, bound float64
	disconnected     int
}

func measureStretch(phys, gp *graph.Graph, live []graph.NodeID, nEver int, seed int64) *stretchCheck {
	res := metrics.Stretch(phys, gp, live, stretchSources, rand.New(rand.NewSource(seed)))
	return &stretchCheck{max: res.Max, mean: res.Mean, bound: metrics.Bound(nEver), disconnected: res.Disconnected}
}

// digest fingerprints the healed network and G′: node and edge lists of
// both graphs in canonical order. Equal digests mean bit-identical
// graphs.
func digest(phys, gp *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, g := range []*graph.Graph{phys, gp} {
		nodes := g.Nodes()
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		put(int64(len(nodes)))
		for _, v := range nodes {
			put(int64(v))
		}
		edges := g.Edges()
		for i, e := range edges {
			if e.U > e.V {
				edges[i] = graph.Edge{U: e.V, V: e.U}
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].U != edges[j].U {
				return edges[i].U < edges[j].U
			}
			return edges[i].V < edges[j].V
		})
		put(int64(len(edges)))
		for _, e := range edges {
			put(int64(e.U))
			put(int64(e.V))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
