// Gaussian elimination: the paper's non-uniform application. The
// broadcast topology is bandwidth limited, so the partitioning method
// selects far fewer processors than it does for a same-size stencil —
// and that restraint wins on the simulated network.
//
// Run with: go run ./examples/gauss
package main

import (
	"fmt"
	"log"

	"netpart"
	"netpart/internal/core"
	"netpart/internal/gauss"
	"netpart/internal/topo"
)

func main() {
	const n = 200
	net := netpart.PaperTestbed()

	// Benchmark both topologies this example needs.
	bcast, err := netpart.TopoByName("broadcast")
	if err != nil {
		log.Fatal(err)
	}
	costs, err := netpart.BenchmarkCosts(net, netpart.Topo1D(), bcast)
	if err != nil {
		log.Fatal(err)
	}

	// Partition the elimination (broadcast) and, for contrast, a stencil
	// (1-D) of the same size.
	partition := func(ann *netpart.Annotations) netpart.Result {
		est, err := netpart.NewEstimator(net, costs, ann)
		if err != nil {
			log.Fatal(err)
		}
		res, err := netpart.Partition(est)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	gRes := partition(netpart.GaussAnnotations(n))
	sRes := partition(netpart.StencilAnnotations(n, netpart.STEN1, 10))
	fmt.Printf("gauss (broadcast, bandwidth-limited) chooses: %v\n", gRes.Config)
	fmt.Printf("stencil (1-D, locality-friendly) chooses:     %v\n", sRes.Config)

	// Solve a system on the chosen configuration and check it.
	sys := gauss.NewSystem(n, 2026)
	want, err := gauss.Sequential(sys)
	if err != nil {
		log.Fatal(err)
	}
	run, err := gauss.RunSim(net, gRes.Config, gRes.Vector, sys)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want {
		if run.X[i] != want[i] {
			log.Fatalf("x[%d] differs from the sequential solver", i)
		}
	}
	fmt.Printf("distributed solve verified; max residual %.2e\n", gauss.Residual(sys, run.X))
	fmt.Printf("elapsed on chosen config: %.1f ms\n", run.ElapsedMs)

	// Show why restraint wins: force the full network.
	full := netpart.Config{Clusters: []string{"sparc2", "ipc"}, Counts: []int{6, 6}}
	vec, err := core.Decompose(net, full, n, netpart.OpFloat)
	if err != nil {
		log.Fatal(err)
	}
	fullRun, err := gauss.RunSim(net, full, vec, sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("elapsed on all 12 procs:  %.1f ms — broadcast contention erases the parallelism\n", fullRun.ElapsedMs)

	// The 1-D placement keeps router crossings at one per boundary; the
	// broadcast root talks to everyone.
	pl, _ := topo.Contiguous([]string{"sparc2", "ipc"}, []int{6, 6})
	fmt.Printf("router crossings per cycle: 1-D %d vs broadcast %d\n",
		topo.CrossClusterMessages(topo.OneD{}, pl),
		topo.CrossClusterMessages(topo.Broadcast{}, pl))
}
