// Live UDP execution: run the distributed stencil as real concurrent
// tasks — one goroutine per processor — exchanging borders through the
// MMPS-style reliable UDP message-passing library, with processor
// heterogeneity emulated by per-task work factors.
//
// This is the "no MPI" path: the border exchange, acknowledgment,
// retransmission, and byte-order coercion are all hand-rolled over UDP
// datagrams, as the paper's MMPS library did.
//
// Run with: go run ./examples/liveudp
package main

import (
	"fmt"
	"log"
	"time"

	"netpart"
)

func main() {
	const n, iters = 1024, 20

	// Choose a heterogeneous configuration: 4 "Sparc2" tasks and 2 "IPC"
	// tasks that do their row updates twice (half speed).
	net := netpart.PaperTestbed()
	cfg := netpart.Config{Clusters: []string{"sparc2", "ipc"}, Counts: []int{4, 2}}
	vec, err := netpart.Decompose(net, cfg, n, netpart.OpFloat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition vector (speed-proportional): %v\n", vec)

	equal, err := netpart.EqualDecompose(n, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition vector (equal baseline):     %v\n", equal)

	workFactors := []int{1, 1, 1, 1, 2, 2} // ranks 4,5 are 2x slower

	for _, tc := range []struct {
		name string
		vec  netpart.Vector
	}{
		{"Eq. 3 heterogeneous", vec},
		{"equal decomposition", equal},
	} {
		// Best of three runs (wall-clock timings jitter), fresh UDP world
		// each time.
		var best time.Duration
		var grid [][]float64
		for rep := 0; rep < 3; rep++ {
			world, err := netpart.NewUDPWorld(6)
			if err != nil {
				log.Fatal(err)
			}
			res, err := netpart.RunStencilLive(world, tc.vec, netpart.STEN2, n, iters, netpart.StencilOptions{WorkFactor: workFactors})
			for _, tr := range world {
				_ = tr.Close() // best-effort teardown between repetitions
			}
			if err != nil {
				log.Fatal(err)
			}
			if best == 0 || res.Elapsed < best {
				best = res.Elapsed
			}
			grid = res.Grid
		}
		fmt.Printf("%-22s wall-clock %v (best of 3)\n", tc.name+":", best.Round(10*time.Microsecond))

		want := netpart.SequentialStencil(netpart.NewStencilGrid(n), iters)
		for i := range want {
			for j := range want[i] {
				if grid[i][j] != want[i][j] {
					log.Fatalf("%s: verification failed at (%d,%d)", tc.name, i, j)
				}
			}
		}
	}
	fmt.Println("both runs verified against the sequential solver")
	fmt.Println("(the Eq. 3 vector gives the slow tasks half the rows, so all six tasks finish together)")
}
