package experiments

import (
	"fmt"
	"strings"

	"netpart/internal/core"
	"netpart/internal/model"
	"netpart/internal/parallel"
	"netpart/internal/stencil"
	"netpart/internal/trace"
)

// Fig3Point is one point of the Fig. 3 curve: estimated and simulated
// per-cycle time as processors are added along the heuristic's path
// (Sparc2s first, then IPCs).
type Fig3Point struct {
	Procs          int
	P1, P2         int
	EstimatedTcMs  float64
	SimulatedTcMs  float64
	Region         string // "A" (too coarse), "B" (too fine), or "min"
	EstimateErrPct float64
}

// Fig3 sweeps p = 1..12 for the given problem size and variant, producing
// the canonical T_c-versus-processors curve with its single minimum
// (region A to the left, region B to the right).
func Fig3(e *Env, n int, v stencil.Variant) ([]Fig3Point, error) {
	est, err := core.NewEstimator(e.Net, e.Fitted, stencil.Annotations(n, v, Iterations))
	if err != nil {
		return nil, err
	}
	// The curve varies one cluster count per point (p1 up to 6, then p2), so
	// all estimates come from a single delta evaluator up front — the
	// parallel fan-out below only runs the simulations.
	pts := make([]Fig3Point, e.Net.TotalProcs())
	ests := make([]core.Estimate, len(pts))
	delta, err := est.BeginDelta(PaperConfig(6, 0))
	if err != nil {
		return nil, err
	}
	for i := range pts {
		p := i + 1
		var pe core.Estimate
		if p <= 6 {
			pe, err = delta.Probe(0, p)
		} else {
			pe, err = delta.Probe(1, p-6)
		}
		if err != nil {
			return nil, err
		}
		ests[i] = pe.Detach()
	}
	err = parallel.For(e.workers(), len(pts), func(i int) error {
		env := e.Clone()
		p := i + 1
		p1, p2 := p, 0
		if p1 > 6 {
			p1, p2 = 6, p-6
		}
		cfg := PaperConfig(p1, p2)
		pe := ests[i]
		vec, err := core.Decompose(env.Net, cfg, n, model.OpFloat)
		if err != nil {
			return err
		}
		ms, err := simMs(env.Net, cfg, vec, v, n, Iterations)
		if err != nil {
			return err
		}
		simTc := ms / Iterations
		pts[i] = Fig3Point{
			Procs: p, P1: p1, P2: p2,
			EstimatedTcMs:  pe.TcMs,
			SimulatedTcMs:  simTc,
			EstimateErrPct: trace.DeviationPct(pe.TcMs, simTc),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Mark regions around the simulated minimum.
	var min trace.MinTracker
	for i, pt := range pts {
		min.Observe(i, pt.SimulatedTcMs)
	}
	for i := range pts {
		switch {
		case i < min.Index():
			pts[i].Region = "A"
		case i == min.Index():
			pts[i].Region = "min"
		default:
			pts[i].Region = "B"
		}
	}
	return pts, nil
}

// RenderFig3 prints the curve with an ASCII bar per point.
func RenderFig3(pts []Fig3Point, n int, v stencil.Variant) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — T_c vs processors (N=%d, %s); region A left of the minimum, B right\n", n, v)
	t := NewTextTable("p", "config", "Tc_est(ms)", "Tc_sim(ms)", "err%", "region", "curve")
	maxTc := 0.0
	for _, p := range pts {
		if p.SimulatedTcMs > maxTc {
			maxTc = p.SimulatedTcMs
		}
	}
	for _, p := range pts {
		bar := strings.Repeat("#", 1+int(40*p.SimulatedTcMs/maxTc))
		t.Add(fmt.Sprint(p.Procs), fmt.Sprintf("%d+%d", p.P1, p.P2),
			fmt.Sprintf("%.2f", p.EstimatedTcMs), fmt.Sprintf("%.2f", p.SimulatedTcMs),
			fmt.Sprintf("%+.1f", p.EstimateErrPct), p.Region, bar)
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig2 reproduces the partition-vector example of Fig. 2: a 20×20 matrix
// decomposed 1-D across four processors, with the partition vector and the
// block-row ranges each processor receives.
func Fig2(e *Env) (string, error) {
	cfg := PaperConfig(4, 0)
	vec, err := core.Decompose(e.Net, cfg, 20, model.OpFloat)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig. 2 — partition vector for a 20x20 matrix, 1-D over 4 processors\n")
	b.WriteString(fmt.Sprintf("partition vector A = %v (sum %d)\n", vec, vec.Sum()))
	off := 0
	for rank, a := range vec {
		b.WriteString(fmt.Sprintf("  p%d: rows %2d..%2d  %s\n", rank+1, off, off+a-1, strings.Repeat("▤", a)))
		off += a
	}
	return b.String(), nil
}

// Fig1 renders the example heterogeneous network of Fig. 1: three clusters
// on three ethernet segments joined by one router.
func Fig1() (string, error) {
	net := model.Figure1Network()
	if err := net.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig. 1 — heterogeneous network: clusters on private-bandwidth segments joined by a router\n\n")
	for _, seg := range net.Segments {
		var host *model.Cluster
		for _, c := range net.Clusters {
			if c.Segment == seg.Name {
				host = c
			}
		}
		nodes := strings.TrimSuffix(strings.Repeat("[]-", host.Procs), "-")
		b.WriteString(fmt.Sprintf("  %-8s ═══ %s  (%s ×%d, %.1f µs/flop, %s, manager: %s/0)\n",
			seg.Name, nodes, host.Arch, host.Procs, host.FloatOpTime*1000, host.Format, host.Name))
		b.WriteString("      ║\n")
	}
	b.WriteString(fmt.Sprintf("   [%s]  joins %v, %.4f ms/byte transit\n",
		net.Router.Name, net.Router.Segments, net.Router.PerByteMs))
	return b.String(), nil
}
