// Package topo implements the restricted set of regular, synchronous
// communication topologies the partitioning method supports (Sections 3.0
// and 4.0 of the paper): 1-D, ring, 2-D mesh, tree, broadcast, and
// all-to-all. A topology determines, for each task rank, the set of
// neighbors it exchanges messages with during one communication cycle, and
// whether the pattern is bandwidth-limited (every message contends for the
// same channel capacity regardless of locality, as in broadcast).
//
//netpart:deterministic
package topo

import (
	"fmt"
	"math"
	"sort"
)

// Topology describes one synchronous communication pattern over p tasks
// ranked 0..p-1. During a communication cycle each task performs an
// asynchronous send to each neighbor followed by a blocking receive from
// each neighbor.
type Topology interface {
	// Name returns the canonical name used in annotations ("1-D", "ring",
	// "2-D", "tree", "broadcast", "all-to-all").
	Name() string
	// Neighbors returns the ranks task 'rank' exchanges messages with in a
	// cycle of p tasks, in increasing rank order. It panics if rank is out
	// of [0, p).
	Neighbors(rank, p int) []int
	// BandwidthLimited reports whether the pattern consumes channel
	// bandwidth proportional to the total number of participants rather
	// than benefiting from segment locality (Section 3.0: broadcast-like
	// patterns cannot exploit additional private-segment bandwidth).
	BandwidthLimited() bool
}

func checkRank(rank, p int) {
	if p <= 0 {
		panic(fmt.Sprintf("topo: nonpositive task count %d", p))
	}
	if rank < 0 || rank >= p {
		panic(fmt.Sprintf("topo: rank %d out of [0,%d)", rank, p))
	}
}

// OneD is the 1-D (line) topology: each task exchanges with its north and
// south neighbors; the two ends have a single neighbor.
type OneD struct{}

// Name returns "1-D".
func (OneD) Name() string { return "1-D" }

// Neighbors returns rank-1 and rank+1 where they exist.
func (OneD) Neighbors(rank, p int) []int {
	checkRank(rank, p)
	var ns []int
	if rank > 0 {
		ns = append(ns, rank-1)
	}
	if rank < p-1 {
		ns = append(ns, rank+1)
	}
	return ns
}

// BandwidthLimited reports false: a line exploits segment locality.
func (OneD) BandwidthLimited() bool { return false }

// Ring is the 1-D topology with wraparound.
type Ring struct{}

// Name returns "ring".
func (Ring) Name() string { return "ring" }

// Neighbors returns the two cyclic neighbors (one for p=2, none for p=1).
func (Ring) Neighbors(rank, p int) []int {
	checkRank(rank, p)
	if p == 1 {
		return nil
	}
	if p == 2 {
		return []int{1 - rank}
	}
	a, b := (rank+p-1)%p, (rank+1)%p
	if a > b {
		a, b = b, a
	}
	return []int{a, b}
}

// BandwidthLimited reports false.
func (Ring) BandwidthLimited() bool { return false }

// Mesh2D arranges tasks in the most nearly square factorization of p, row
// major; each task exchanges with up to four mesh neighbors.
type Mesh2D struct{}

// Name returns "2-D".
func (Mesh2D) Name() string { return "2-D" }

// Dims returns the (rows, cols) factorization used for p tasks: the factor
// pair closest to square, rows ≤ cols. For prime p this degenerates to
// 1 × p.
func (Mesh2D) Dims(p int) (rows, cols int) {
	if p <= 0 {
		panic(fmt.Sprintf("topo: nonpositive task count %d", p))
	}
	rows = 1
	for r := int(math.Sqrt(float64(p))); r >= 1; r-- {
		if p%r == 0 {
			rows = r
			break
		}
	}
	return rows, p / rows
}

// Neighbors returns the ≤4 mesh neighbors of rank in the Dims(p) grid.
func (m Mesh2D) Neighbors(rank, p int) []int {
	checkRank(rank, p)
	rows, cols := m.Dims(p)
	r, c := rank/cols, rank%cols
	var ns []int
	if r > 0 {
		ns = append(ns, (r-1)*cols+c)
	}
	if c > 0 {
		ns = append(ns, r*cols+c-1)
	}
	if c < cols-1 {
		ns = append(ns, r*cols+c+1)
	}
	if r < rows-1 {
		ns = append(ns, (r+1)*cols+c)
	}
	sort.Ints(ns)
	return ns
}

// BandwidthLimited reports false.
func (Mesh2D) BandwidthLimited() bool { return false }

// Tree is a complete binary tree rooted at rank 0: each task exchanges with
// its parent and its children.
type Tree struct{}

// Name returns "tree".
func (Tree) Name() string { return "tree" }

// Neighbors returns the parent (rank-1)/2 and children 2·rank+1, 2·rank+2
// where they exist.
func (Tree) Neighbors(rank, p int) []int {
	checkRank(rank, p)
	var ns []int
	if rank > 0 {
		ns = append(ns, (rank-1)/2)
	}
	if l := 2*rank + 1; l < p {
		ns = append(ns, l)
	}
	if r := 2*rank + 2; r < p {
		ns = append(ns, r)
	}
	sort.Ints(ns)
	return ns
}

// BandwidthLimited reports false.
func (Tree) BandwidthLimited() bool { return false }

// Broadcast has rank 0 sending to every other task each cycle; the other
// tasks receive only. It is the canonical bandwidth-limited pattern: the
// root's sends consume channel capacity proportional to the total task
// count, so extra segments add no usable bandwidth.
type Broadcast struct{}

// Name returns "broadcast".
func (Broadcast) Name() string { return "broadcast" }

// Neighbors returns all other ranks for rank 0, and {0} otherwise.
func (Broadcast) Neighbors(rank, p int) []int {
	checkRank(rank, p)
	if rank != 0 {
		return []int{0}
	}
	ns := make([]int, 0, p-1)
	for i := 1; i < p; i++ {
		ns = append(ns, i)
	}
	return ns
}

// BandwidthLimited reports true.
func (Broadcast) BandwidthLimited() bool { return true }

// AllToAll has every task exchanging with every other task each cycle.
type AllToAll struct{}

// Name returns "all-to-all".
func (AllToAll) Name() string { return "all-to-all" }

// Neighbors returns every other rank.
func (AllToAll) Neighbors(rank, p int) []int {
	checkRank(rank, p)
	ns := make([]int, 0, p-1)
	for i := 0; i < p; i++ {
		if i != rank {
			ns = append(ns, i)
		}
	}
	return ns
}

// BandwidthLimited reports true.
func (AllToAll) BandwidthLimited() bool { return true }

// registry lists the known topologies. ByName scans it: a handful of
// entries, and a decision resolves its topology each time.
var registry = []Topology{OneD{}, Ring{}, Mesh2D{}, Tree{}, Broadcast{}, AllToAll{}, Torus2D{}, Hypercube{}}

// ByName returns the topology with the given canonical name.
func ByName(name string) (Topology, error) {
	for _, t := range registry {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("topo: unknown topology %q", name)
}

// Names returns the canonical topology names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, t := range registry {
		out = append(out, t.Name())
	}
	sort.Strings(out)
	return out
}
