// Quickstart: partition a stencil computation across the paper's
// heterogeneous testbed and execute it on the simulated network.
//
// This walks the full pipeline in four steps:
//  1. describe the network (two clusters of workstations and a router),
//  2. benchmark its communication costs offline (Eq. 1 fitting),
//  3. let the runtime partitioning method choose processors and the
//     partition vector from the program's callback annotations,
//  4. execute the chosen configuration and verify the numerics.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"netpart"
)

func main() {
	// 1. The network: 6 Sparc2s and 6 IPCs on two ethernet segments.
	net := netpart.PaperTestbed()
	fmt.Printf("network: %d processors in %d clusters\n", net.TotalProcs(), len(net.Clusters))

	// 2. Offline benchmarking of the 1-D communication topology.
	costs, err := netpart.BenchmarkCosts(net, netpart.Topo1D())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Partition a 600×600 overlapped stencil (STEN-2, 10 iterations).
	const n, iters = 600, 10
	ann := netpart.StencilAnnotations(n, netpart.STEN2, iters)
	est, err := netpart.NewEstimator(net, costs, ann)
	if err != nil {
		log.Fatal(err)
	}
	res, err := netpart.Partition(est)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chosen configuration: %v\n", res.Config)
	fmt.Printf("partition vector:     %v\n", res.Vector)
	fmt.Printf("predicted T_c:        %.2f ms/cycle (T_comp %.2f, T_comm %.2f, overlap %.2f)\n",
		res.TcMs, res.TcompMs, res.TcommMs, res.ToverlapMs)
	fmt.Printf("search cost:          %d cost-model evaluations\n", res.Evaluations)

	// 4. Execute on the simulated network and verify.
	run, err := netpart.RunStencilSim(net, res.Config, res.Vector, netpart.STEN2, n, iters, netpart.StencilOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated elapsed:    %.1f ms (predicted %.1f ms)\n",
		run.ElapsedMs, res.ElapsedMs(iters))

	want := netpart.SequentialStencil(netpart.NewStencilGrid(n), iters)
	for i := range want {
		for j := range want[i] {
			if run.Grid[i][j] != want[i][j] {
				log.Fatalf("verification failed at (%d,%d)", i, j)
			}
		}
	}
	fmt.Println("verification:         distributed result matches the sequential solver exactly")
}
