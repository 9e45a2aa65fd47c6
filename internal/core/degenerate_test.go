package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"netpart/internal/cost"
	"netpart/internal/model"
)

// singleCluster is the paper's testbed cut down to its Sparc2 cluster.
func singleCluster() *model.Network {
	net := model.PaperTestbed()
	net.Clusters, net.Segments = net.Clusters[:1], net.Segments[:1]
	net.Router.Segments = net.Router.Segments[:1]
	return net
}

// noneAvailable is the paper's testbed with every processor busy.
func noneAvailable() *model.Network {
	net := model.PaperTestbed()
	for _, c := range net.Clusters {
		c.Available = 0
	}
	return net
}

// TestDegenerateDecisions pins what the three searches do on the smallest
// and emptiest inputs: a valid Result or the named error below, and never
// a panic.
func TestDegenerateDecisions(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *model.Network
		tbl  *cost.Table
		n    int
		want error  // a sentinel the error must wrap, or nil
		text string // what the error must say, or "" for a valid Result
	}{
		{name: "single cluster", net: singleCluster(), tbl: cost.PaperTable(), n: 600},
		{name: "nothing available", net: noneAvailable(), tbl: cost.PaperTable(), n: 600, want: ErrNoProcessors, text: "no processors"},
		{name: "N = 1", net: model.PaperTestbed(), tbl: cost.PaperTable(), n: 1},
		{name: "N = 2", net: model.PaperTestbed(), tbl: cost.PaperTable(), n: 2},
		{name: "empty table", net: model.PaperTestbed(), tbl: cost.NewTable(), n: 600, text: "cost: no model for cluster"},
		{name: "empty table, one task", net: model.PaperTestbed(), tbl: cost.NewTable(), n: 1},
	} {
		for _, s := range []struct {
			name string
			run  func(*Estimator) (Result, error)
		}{{"Partition", Partition}, {"PartitionExhaustive", PartitionExhaustive}, {"PartitionGlobal", PartitionGlobal}} {
			label := tc.name + "/" + s.name
			e, err := NewEstimator(tc.net, tc.tbl, stencilAnnotations(tc.n, false))
			if err != nil {
				t.Fatalf("%s: NewEstimator: %v", label, err)
			}
			res, err := s.run(e)
			switch {
			case tc.text == "" && err != nil:
				t.Errorf("%s: %v, want a valid Result", label, err)
			case tc.text == "":
				if msg := invalidResult(res, tc.net, tc.n); msg != "" {
					t.Errorf("%s: %s", label, msg)
				}
			case err == nil || !strings.Contains(err.Error(), tc.text) || tc.want != nil && !errors.Is(err, tc.want):
				t.Errorf("%s: error %v, want one saying %q", label, err, tc.text)
			}
		}
	}
}

// invalidResult says what is wrong with res as an answer for n PDUs on
// net, or "" when nothing is.
func invalidResult(res Result, net *model.Network, n int) string {
	p := res.Config.Total()
	switch {
	case p < 1 || p > n:
		return fmt.Sprintf("%d processors for %d PDUs", p, n)
	case len(res.Vector) != p || res.Vector.Sum() != n:
		return fmt.Sprintf("vector %v for %d processors and %d PDUs", res.Vector, p, n)
	case len(res.Shares) != len(res.Config.Clusters):
		return fmt.Sprintf("%d shares for %d clusters", len(res.Shares), len(res.Config.Clusters))
	case !(res.TcMs > 0) || math.IsInf(res.TcMs, 0):
		return fmt.Sprintf("T_c = %v", res.TcMs)
	}
	for _, a := range res.Vector {
		if a < 1 {
			return fmt.Sprintf("vector %v leaves a task empty", res.Vector)
		}
	}
	for i, name := range res.Config.Clusters {
		if c := net.Cluster(name); c == nil || res.Config.Counts[i] > c.Available {
			return fmt.Sprintf("%d processors on cluster %q", res.Config.Counts[i], name)
		}
	}
	return ""
}

// TestDecomposeMoreProcessorsThanPDUs: Decompose refuses a configuration
// with more processors than PDUs by name.
func TestDecomposeMoreProcessorsThanPDUs(t *testing.T) {
	cfg := cost.Config{Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{6, 6}}
	for _, n := range []int{1, 2, 11} {
		if v, err := Decompose(model.PaperTestbed(), cfg, n, model.OpFloat); !errors.Is(err, ErrTooFewPDUs) {
			t.Errorf("N = %d on 12 processors: %v, %v; want ErrTooFewPDUs", n, v, err)
		}
	}
}
