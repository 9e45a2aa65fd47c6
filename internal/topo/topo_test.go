package topo

import (
	"testing"
	"testing/quick"

	"netpart/internal/model"
)

func allTopologies() []Topology {
	return []Topology{OneD{}, Ring{}, Mesh2D{}, Tree{}, Broadcast{}, AllToAll{}, Torus2D{}, Hypercube{}}
}

func TestOneDNeighbors(t *testing.T) {
	var td OneD
	cases := []struct {
		rank, p int
		want    []int
	}{
		{0, 1, nil},
		{0, 2, []int{1}},
		{1, 2, []int{0}},
		{0, 5, []int{1}},
		{2, 5, []int{1, 3}},
		{4, 5, []int{3}},
	}
	for _, c := range cases {
		got := td.Neighbors(c.rank, c.p)
		if !equalInts(got, c.want) {
			t.Errorf("OneD.Neighbors(%d,%d) = %v, want %v", c.rank, c.p, got, c.want)
		}
	}
}

func TestRingNeighbors(t *testing.T) {
	var r Ring
	if got := r.Neighbors(0, 1); got != nil {
		t.Errorf("Ring.Neighbors(0,1) = %v, want nil", got)
	}
	if got := r.Neighbors(0, 2); !equalInts(got, []int{1}) {
		t.Errorf("Ring.Neighbors(0,2) = %v, want [1]", got)
	}
	if got := r.Neighbors(0, 5); !equalInts(got, []int{1, 4}) {
		t.Errorf("Ring.Neighbors(0,5) = %v, want [1 4]", got)
	}
	if got := r.Neighbors(4, 5); !equalInts(got, []int{0, 3}) {
		t.Errorf("Ring.Neighbors(4,5) = %v, want [0 3]", got)
	}
}

func TestMesh2DDims(t *testing.T) {
	var m Mesh2D
	cases := []struct{ p, rows, cols int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {7, 1, 7}, {12, 3, 4}, {16, 4, 4},
	}
	for _, c := range cases {
		r, cl := m.Dims(c.p)
		if r != c.rows || cl != c.cols {
			t.Errorf("Dims(%d) = (%d,%d), want (%d,%d)", c.p, r, cl, c.rows, c.cols)
		}
	}
}

func TestMesh2DNeighbors(t *testing.T) {
	var m Mesh2D
	// 12 tasks → 3x4 grid. Task 5 is row 1, col 1: neighbors 1, 4, 6, 9.
	if got := m.Neighbors(5, 12); !equalInts(got, []int{1, 4, 6, 9}) {
		t.Errorf("Mesh2D.Neighbors(5,12) = %v", got)
	}
	// Corner task 0: neighbors 1 and 4.
	if got := m.Neighbors(0, 12); !equalInts(got, []int{1, 4}) {
		t.Errorf("Mesh2D.Neighbors(0,12) = %v", got)
	}
}

func TestTreeNeighbors(t *testing.T) {
	var tr Tree
	if got := tr.Neighbors(0, 7); !equalInts(got, []int{1, 2}) {
		t.Errorf("Tree.Neighbors(0,7) = %v", got)
	}
	if got := tr.Neighbors(1, 7); !equalInts(got, []int{0, 3, 4}) {
		t.Errorf("Tree.Neighbors(1,7) = %v", got)
	}
	if got := tr.Neighbors(6, 7); !equalInts(got, []int{2}) {
		t.Errorf("Tree.Neighbors(6,7) = %v", got)
	}
}

func TestBroadcastNeighbors(t *testing.T) {
	var b Broadcast
	if got := b.Neighbors(0, 4); !equalInts(got, []int{1, 2, 3}) {
		t.Errorf("Broadcast.Neighbors(0,4) = %v", got)
	}
	if got := b.Neighbors(3, 4); !equalInts(got, []int{0}) {
		t.Errorf("Broadcast.Neighbors(3,4) = %v", got)
	}
	if !b.BandwidthLimited() {
		t.Error("broadcast must be bandwidth limited")
	}
}

func TestAllToAllNeighbors(t *testing.T) {
	var a AllToAll
	if got := a.Neighbors(1, 4); !equalInts(got, []int{0, 2, 3}) {
		t.Errorf("AllToAll.Neighbors(1,4) = %v", got)
	}
	if !a.BandwidthLimited() {
		t.Error("all-to-all must be bandwidth limited")
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, tp := range allTopologies() {
		got, err := ByName(tp.Name())
		if err != nil {
			t.Errorf("ByName(%q): %v", tp.Name(), err)
			continue
		}
		if got.Name() != tp.Name() {
			t.Errorf("ByName(%q).Name() = %q", tp.Name(), got.Name())
		}
	}
	if _, err := ByName("starcube"); err == nil {
		t.Error("ByName(starcube) should fail")
	}
	names := Names()
	if len(names) != 8 {
		t.Errorf("Names() = %v, want 8 entries", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}

func TestNeighborsPanicsOnBadRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range rank")
		}
	}()
	OneD{}.Neighbors(5, 3)
}

// Property: the neighbor relation is symmetric for every topology (if a
// sends to b, b sends to a — required by the synchronous cycle of
// async-sends-then-blocking-receives), neighbor lists are sorted, contain no
// self-loops or duplicates.
func TestNeighborSymmetryProperty(t *testing.T) {
	for _, tp := range allTopologies() {
		tp := tp
		f := func(pRaw uint8) bool {
			p := int(pRaw%32) + 1
			adj := make([]map[int]bool, p)
			for rank := 0; rank < p; rank++ {
				ns := tp.Neighbors(rank, p)
				adj[rank] = make(map[int]bool, len(ns))
				for i, nb := range ns {
					if nb == rank || nb < 0 || nb >= p {
						return false
					}
					if i > 0 && ns[i-1] >= nb {
						return false // not sorted or duplicate
					}
					adj[rank][nb] = true
				}
			}
			for a := 0; a < p; a++ {
				for b := range adj[a] {
					if !adj[b][a] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", tp.Name(), err)
		}
	}
}

// Property: every topology is connected for all p (a requirement for the
// data domain to be exchangeable among all tasks).
func TestConnectivityProperty(t *testing.T) {
	for _, tp := range allTopologies() {
		for p := 1; p <= 33; p++ {
			seen := make([]bool, p)
			stack := []int{0}
			seen[0] = true
			count := 1
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, nb := range tp.Neighbors(cur, p) {
					if !seen[nb] {
						seen[nb] = true
						count++
						stack = append(stack, nb)
					}
				}
			}
			if count != p {
				t.Errorf("%s: p=%d reached only %d tasks", tp.Name(), p, count)
			}
		}
	}
}

func TestContiguousPlacement(t *testing.T) {
	pl, err := Contiguous([]string{"sparc2", "ipc"}, []int{6, 4})
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumTasks() != 10 {
		t.Fatalf("NumTasks = %d, want 10", pl.NumTasks())
	}
	if pl.ClusterOf(0) != "sparc2" || pl.ClusterOf(5) != "sparc2" || pl.ClusterOf(6) != "ipc" {
		t.Errorf("placement order wrong: %v", pl.Procs)
	}
	// Indices within each cluster restart from zero.
	if pl.Procs[6].Index != 0 {
		t.Errorf("first ipc task has index %d, want 0", pl.Procs[6].Index)
	}
}

func TestContiguousSkipsZeroCounts(t *testing.T) {
	pl, err := Contiguous([]string{"a", "b", "c"}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumTasks() != 3 || pl.ClusterOf(2) != "c" {
		t.Errorf("placement = %v", pl.Procs)
	}
}

func TestContiguousErrors(t *testing.T) {
	if _, err := Contiguous([]string{"a"}, []int{1, 2}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := Contiguous([]string{"a"}, []int{-1}); err == nil {
		t.Error("negative count should error")
	}
}

func TestCrossClusterMessages1D(t *testing.T) {
	pl, _ := Contiguous([]string{"sparc2", "ipc"}, []int{6, 6})
	// Contiguous 1-D placement: exactly one boundary, two directed messages.
	if got := CrossClusterMessages(OneD{}, pl); got != 2 {
		t.Errorf("1-D cross-cluster messages = %d, want 2", got)
	}
	border := BorderTasks(OneD{}, pl)
	if border["sparc2"] != 1 || border["ipc"] != 1 {
		t.Errorf("BorderTasks = %v, want one per cluster", border)
	}
}

func TestCrossClusterMessagesSingleCluster(t *testing.T) {
	pl, _ := Contiguous([]string{"sparc2"}, []int{6})
	if got := CrossClusterMessages(OneD{}, pl); got != 0 {
		t.Errorf("single-cluster crossings = %d, want 0", got)
	}
	if got := len(BorderTasks(OneD{}, pl)); got != 0 {
		t.Errorf("single-cluster border tasks = %d, want 0", got)
	}
}

func TestCrossClusterMessagesBroadcast(t *testing.T) {
	pl, _ := Contiguous([]string{"a", "b"}, []int{3, 3})
	// Root on cluster a sends to 3 tasks on b, each replies: 6 crossings.
	if got := CrossClusterMessages(Broadcast{}, pl); got != 6 {
		t.Errorf("broadcast crossings = %d, want 6", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTorusNeighbors(t *testing.T) {
	var tor Torus2D
	// 12 tasks → 3x4 torus. Task 0 (corner): up wraps to 8, down 4, left
	// wraps to 3, right 1.
	if got := tor.Neighbors(0, 12); !equalInts(got, []int{1, 3, 4, 8}) {
		t.Errorf("Torus2D.Neighbors(0,12) = %v", got)
	}
	// 4 tasks → 2x2: wraparound collapses onto the mesh neighbors.
	if got := tor.Neighbors(0, 4); !equalInts(got, []int{1, 2}) {
		t.Errorf("Torus2D.Neighbors(0,4) = %v", got)
	}
	if got := tor.Neighbors(0, 1); len(got) != 0 {
		t.Errorf("single-task torus has neighbors: %v", got)
	}
	// Degenerate 1×p torus equals a ring.
	var ring Ring
	for rank := 0; rank < 5; rank++ {
		if !equalInts(tor.Neighbors(rank, 5), ring.Neighbors(rank, 5)) {
			t.Errorf("1x5 torus differs from ring at rank %d", rank)
		}
	}
}

func TestHypercubeNeighbors(t *testing.T) {
	var h Hypercube
	if got := h.Neighbors(0, 8); !equalInts(got, []int{1, 2, 4}) {
		t.Errorf("Hypercube.Neighbors(0,8) = %v", got)
	}
	if got := h.Neighbors(5, 8); !equalInts(got, []int{1, 4, 7}) {
		t.Errorf("Hypercube.Neighbors(5,8) = %v", got)
	}
	// Incomplete hypercube (p=6): edges to ranks ≥ 6 dropped.
	if got := h.Neighbors(5, 6); !equalInts(got, []int{1, 4}) {
		t.Errorf("incomplete Hypercube.Neighbors(5,6) = %v", got)
	}
}

func TestContiguousMinimizesRouterCrossings(t *testing.T) {
	// The paper's §6 placement argument: contiguous 1-D placement needs
	// one router crossing per cluster boundary; an interleaved placement
	// crosses at every edge.
	clusters := []string{"sparc2", "ipc"}
	counts := []int{6, 6}
	cont, err := Contiguous(clusters, counts)
	if err != nil {
		t.Fatal(err)
	}
	var rr Placement
	for i := 0; i < 6; i++ {
		rr.Procs = append(rr.Procs, model.ProcID{Cluster: "sparc2", Index: i}, model.ProcID{Cluster: "ipc", Index: i})
	}
	cCont := CrossClusterMessages(OneD{}, cont)
	cRR := CrossClusterMessages(OneD{}, rr)
	if cCont != 2 {
		t.Errorf("contiguous crossings = %d, want 2", cCont)
	}
	if cRR != 22 { // every one of the 11 edges crosses, both directions
		t.Errorf("interleaved crossings = %d, want 22", cRR)
	}
}
