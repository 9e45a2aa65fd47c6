// Heterogeneous network walkthrough: build the three-cluster network of
// Fig. 1 (Sun4, HP, RS-6000 on three segments with data-format coercion),
// run the cluster managers' cooperative availability protocol over the
// message-passing layer, and watch the partitioner adapt as processors
// become busy.
//
// Run with: go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"sync"

	"netpart"
	"netpart/internal/manager"
)

func main() {
	net := netpart.Figure1Network()
	fmt.Println("Fig. 1 network: sun4, hp, rs6000 clusters joined by one router")
	fmt.Printf("coercion needed sun4↔rs6000: %v (different data formats)\n\n",
		net.NeedsCoercion("sun4", "rs6000"))

	costs, err := netpart.BenchmarkCosts(net, netpart.Topo1D())
	if err != nil {
		log.Fatal(err)
	}
	ann := netpart.StencilAnnotations(900, netpart.STEN2, 10)

	partition := func(label string, net *netpart.Network) {
		est, err := netpart.NewEstimator(net, costs, ann)
		if err != nil {
			log.Fatal(err)
		}
		res, err := netpart.Partition(est)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s -> %v  (Tc %.2f ms)\n", label, res.Config, res.TcMs)
	}

	// All processors idle.
	partition("all 12 processors idle", net)

	// Cluster managers monitor load and exchange availability over the
	// message-passing layer (one manager per cluster).
	mgrs := make([]*manager.Manager, len(net.Clusters))
	for i, c := range net.Clusters {
		mgrs[i] = netpart.NewClusterManager(c)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// Users log into three of the four RS-6000s and one HP.
	must(mgrs[2].SetLoad(0, 2.0))
	must(mgrs[2].SetLoad(1, 1.5))
	must(mgrs[2].SetLoad(2, 0.8))
	must(mgrs[1].SetLoad(3, 1.2))

	// Cooperative exchange: every manager learns every cluster's state.
	world, err := netpart.NewLocalWorld(len(mgrs))
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	reports := make([][]manager.Report, len(mgrs))
	for i := range mgrs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := manager.Exchange(world[i], mgrs[i].Report())
			if err != nil {
				log.Fatal(err)
			}
			reports[i] = r
		}()
	}
	wg.Wait()
	fmt.Println("\navailability after the cooperative exchange:")
	for _, r := range reports[0] {
		fmt.Printf("  %-8s %d available (mean load over all procs %.2f)\n", r.Cluster, r.Available, r.MeanLoadAll)
	}
	manager.Apply(net, reports[0])

	// The partitioner now sees the reduced availability.
	partition("\nafter load appears", net)

	// The paper's "general case": keep the busy processors but stretch
	// their effective instruction times by the observed load.
	adjusted := manager.AdjustSpeeds(net, reports[0])
	for _, c := range adjusted.Clusters {
		c.Available = c.Procs
	}
	partition("general case (speeds adjusted)", adjusted)
}
