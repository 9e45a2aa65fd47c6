// Particle simulation: the third PDU type the paper names ("a collection
// of particles"). Work per cell depends on the local density squared, so
// when particles clump, the density-blind Eq. 3 decomposition piles the
// whole clump onto one processor; the density-weighted decomposition
// rebalances — and both produce bit-identical physics.
//
// Run with: go run ./examples/particles
package main

import (
	"fmt"
	"log"
	"strings"

	"netpart"
)

func main() {
	const cells, n, steps = 48, 1200, 10
	net := netpart.PaperTestbed()
	cfg := netpart.Config{Clusters: []string{"sparc2", "ipc"}, Counts: []int{4, 0}}

	// 80% of the particles start in the first tenth of the domain.
	sys := netpart.NewParticleSystem(cells, n, 2026, 0.8)
	hist := sys.Histogram()
	fmt.Println("density histogram (particles per cell):")
	fmt.Printf("  %s\n", sparkline(hist))

	uniform, err := netpart.Decompose(net, cfg, cells, netpart.OpFloat)
	if err != nil {
		log.Fatal(err)
	}
	weighted, err := netpart.WeightedDecompose(net, cfg, hist, netpart.OpFloat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uniform vector   (cells/task): %v\n", uniform)
	fmt.Printf("weighted vector  (cells/task): %v  — tasks near the clump own fewer cells\n", weighted)

	want := netpart.SequentialParticles(sys, steps)
	for name, vec := range map[string]netpart.Vector{"uniform": uniform, "weighted": weighted} {
		res, err := netpart.RunParticlesSim(net, cfg, vec, sys, steps)
		if err != nil {
			log.Fatal(err)
		}
		for i := range want.Particles {
			if res.Final.Particles[i] != want.Particles[i] {
				log.Fatalf("%s: particle %d diverged", name, i)
			}
		}
		fmt.Printf("%-9s simulated elapsed: %8.1f ms (verified bit-exact)\n", name, res.ElapsedMs)
	}
	fmt.Println("\nthe partitioning method itself still chooses the processor count:")
	costs, err := netpart.BenchmarkCosts(net)
	if err != nil {
		log.Fatal(err)
	}
	est, err := netpart.NewEstimator(net, costs, netpart.ParticleAnnotations(cells, n, steps))
	if err != nil {
		log.Fatal(err)
	}
	res, err := netpart.Partition(est)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  chosen configuration: %v (predicted Tc %.2f ms)\n", res.Config, res.TcMs)
}

// sparkline renders counts as a rough bar string.
func sparkline(counts []int) string {
	max := 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, c := range counts {
		b.WriteRune(levels[c*(len(levels)-1)/max])
	}
	return b.String()
}
