package topo

import (
	"fmt"

	"netpart/internal/model"
)

// Placement assigns task ranks to processors. Ranks index Procs.
type Placement struct {
	Procs []model.ProcID
}

// NumTasks returns the number of placed tasks.
func (pl Placement) NumTasks() int { return len(pl.Procs) }

// ClusterOf returns the cluster hosting the given rank.
func (pl Placement) ClusterOf(rank int) string { return pl.Procs[rank].Cluster }

// Contiguous places tasks on clusters in the given order: ranks 0..n1-1 on
// the first cluster, the next n2 on the second, and so on. For the 1-D
// topology this is the placement the paper uses — only one processor per
// cluster communicates across the router. counts[i] tasks are placed on
// clusters[i]; zero-count clusters are skipped.
func Contiguous(clusters []string, counts []int) (Placement, error) {
	if len(clusters) != len(counts) {
		return Placement{}, fmt.Errorf("topo: %d clusters but %d counts", len(clusters), len(counts))
	}
	var pl Placement
	for i, name := range clusters {
		if counts[i] < 0 {
			return Placement{}, fmt.Errorf("topo: negative count %d for cluster %q", counts[i], name)
		}
		for j := 0; j < counts[i]; j++ {
			pl.Procs = append(pl.Procs, model.ProcID{Cluster: name, Index: j})
		}
	}
	return pl, nil
}

// CrossClusterMessages counts the directed messages per communication cycle
// that travel between tasks on different clusters under the given topology
// and placement. For a single-router network every such message crosses the
// router once.
func CrossClusterMessages(t Topology, pl Placement) int {
	n := pl.NumTasks()
	crossings := 0
	for rank := 0; rank < n; rank++ {
		for _, nb := range t.Neighbors(rank, n) {
			if pl.ClusterOf(rank) != pl.ClusterOf(nb) {
				crossings++
			}
		}
	}
	return crossings
}

// BorderTasks returns, per cluster, the number of its tasks that have at
// least one neighbor in a different cluster. The paper's contiguous 1-D
// placement keeps this at one task per cluster boundary.
func BorderTasks(t Topology, pl Placement) map[string]int {
	n := pl.NumTasks()
	out := make(map[string]int)
	for rank := 0; rank < n; rank++ {
		for _, nb := range t.Neighbors(rank, n) {
			if pl.ClusterOf(rank) != pl.ClusterOf(nb) {
				out[pl.ClusterOf(rank)]++
				break
			}
		}
	}
	return out
}
