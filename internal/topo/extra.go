package topo

import "sort"

// Torus2D is the 2-D mesh with wraparound in both dimensions, using the
// same near-square factorization as Mesh2D. Degenerate dimensions (a
// single row or column) reduce to a ring.
type Torus2D struct{}

// Name returns "torus".
func (Torus2D) Name() string { return "torus" }

// Neighbors returns the ≤4 cyclic mesh neighbors, deduplicated (small
// dimensions make wraparound neighbors coincide) and sorted.
func (Torus2D) Neighbors(rank, p int) []int {
	checkRank(rank, p)
	rows, cols := Mesh2D{}.Dims(p)
	r, c := rank/cols, rank%cols
	set := map[int]bool{}
	add := func(rr, cc int) {
		nb := ((rr+rows)%rows)*cols + (cc+cols)%cols
		if nb != rank {
			set[nb] = true
		}
	}
	add(r-1, c)
	add(r+1, c)
	add(r, c-1)
	add(r, c+1)
	out := make([]int, 0, len(set))
	for nb := range set {
		out = append(out, nb)
	}
	sort.Ints(out)
	return out
}

// BandwidthLimited reports false.
func (Torus2D) BandwidthLimited() bool { return false }

// Hypercube connects ranks differing in exactly one bit. For task counts
// that are not powers of two it is the standard incomplete hypercube
// (edges to out-of-range ranks are dropped), which remains connected and
// symmetric.
type Hypercube struct{}

// Name returns "hypercube".
func (Hypercube) Name() string { return "hypercube" }

// Neighbors returns rank ^ 2^d for every dimension d with the partner in
// range, ascending.
func (Hypercube) Neighbors(rank, p int) []int {
	checkRank(rank, p)
	var out []int
	for bit := 1; bit < p; bit <<= 1 {
		if nb := rank ^ bit; nb < p {
			out = append(out, nb)
		}
	}
	sort.Ints(out)
	return out
}

// BandwidthLimited reports false.
func (Hypercube) BandwidthLimited() bool { return false }
