package core

import (
	"fmt"
	"sort"
	"strings"

	"netpart/internal/cost"
)

// Observer receives the partitioning search's decision stream: one
// Candidate per cost-estimate computation (the Eq. 4–6 breakdown the
// search otherwise throws away) and one SearchEvent per control-flow step
// (cluster open/settle/exhaust transitions, bisection probes, the final
// winner). Observers make every partitioning decision explainable — the
// Fig. 3 T_c(p) curve, why a cluster was opened, why a configuration won.
//
// Estimator.Observer is nil by default; a nil observer adds no work and no
// allocations to the estimate hot path.
type Observer interface {
	// OnCandidate reports one evaluated candidate configuration.
	OnCandidate(Candidate)
	// OnSearch reports one search control-flow step.
	OnSearch(SearchEvent)
}

// Candidate is one evaluated configuration with its full Eq. 4–6 cost
// breakdown — the per-candidate record of the paper's central artifact.
type Candidate struct {
	// Cluster and P identify the probe when a search varied a single
	// cluster's count (empty/zero for whole-configuration evaluations,
	// e.g. the exhaustive and global searches).
	Cluster string
	P       int
	// Config is the full candidate configuration.
	Config cost.Config
	// Shares are the Eq. 3 real PDU shares per cluster (A_i).
	Shares []float64
	// Cost breakdown (Eq. 4–6): T_c = T_comp + T_comm − T_overlap.
	TcompMs    float64
	TcommMs    float64
	ToverlapMs float64
	TcMs       float64
	StartupMs  float64
	Charge     string // Estimate.Charge
	// Evaluation is the estimator's evaluation counter after this
	// computation (the O(K·log2 P) overhead sequence number).
	Evaluation int
	// Cached marks a candidate served from a search memo without an Eq. 3/6
	// recomputation (the search still consulted it, so it is part of the
	// decision record).
	Cached bool
}

// Search event kinds.
const (
	EvSearchStart    = "search-start"    // a Partition* search began
	EvClusterOpen    = "cluster-open"    // the locality-first search opened a cluster ([Lo,Hi] range)
	EvBisectStep     = "bisect-step"     // one bisection iteration probing the slope at P over [Lo,Hi]
	EvClusterSettle  = "cluster-settle"  // the cluster's best count left it partially used (search stops)
	EvClusterExhaust = "cluster-exhaust" // the cluster was used in full (a slower cluster may open)
	EvWinner         = "winner"          // the search committed to Config
)

// SearchEvent is one search control-flow step.
type SearchEvent struct {
	// Kind is one of the Ev* constants.
	Kind string
	// Strategy is the search that emitted the event: "bisect", "scan",
	// "exhaustive", or "global".
	Strategy string
	// Cluster is the cluster the step concerns (cluster-scoped kinds only).
	Cluster string
	// P is the step's processor count: the probe point for bisect-step, the
	// chosen count for settle/exhaust, the total for winner.
	P int
	// Lo and Hi bound the remaining search range (cluster-open and
	// bisect-step).
	Lo, Hi int
	// TcMs is the step's cost where one is known (settle/exhaust/winner).
	TcMs float64
	// Config is the winning configuration (winner only).
	Config cost.Config
	// Evaluations is the search's total Eq. 3/6 recomputation count
	// (winner only).
	Evaluations int
}

// MultiObserver fans the stream out to several observers; nil entries are
// skipped.
type MultiObserver []Observer

// OnCandidate implements Observer.
func (m MultiObserver) OnCandidate(c Candidate) {
	for _, o := range m {
		if o != nil {
			o.OnCandidate(c)
		}
	}
}

// OnSearch implements Observer.
func (m MultiObserver) OnSearch(ev SearchEvent) {
	for _, o := range m {
		if o != nil {
			o.OnSearch(ev)
		}
	}
}

// EventSink abstracts a structured event stream; *obs.Recorder satisfies
// it. Declared here structurally so core does not depend on the obs
// package.
type EventSink interface {
	Emit(kind string, fields map[string]any)
}

// SinkObserver forwards the decision stream to an EventSink as flat
// events — "candidate" and "search" kinds — giving JSONL search traces
// for free when the sink is an obs.Recorder writing to a file.
type SinkObserver struct {
	Sink EventSink
}

// OnCandidate implements Observer.
func (o SinkObserver) OnCandidate(c Candidate) {
	if o.Sink == nil {
		return
	}
	o.Sink.Emit("candidate", map[string]any{
		"cluster":     c.Cluster,
		"p":           c.P,
		"config":      c.Config.String(),
		"shares":      c.Shares,
		"tcomp_ms":    c.TcompMs,
		"tcomm_ms":    c.TcommMs,
		"toverlap_ms": c.ToverlapMs,
		"tc_ms":       c.TcMs,
		"startup_ms":  c.StartupMs,
		"evaluation":  c.Evaluation,
		"cached":      c.Cached,
	})
}

// OnSearch implements Observer.
func (o SinkObserver) OnSearch(ev SearchEvent) {
	if o.Sink == nil {
		return
	}
	fields := map[string]any{
		"kind":     ev.Kind,
		"strategy": ev.Strategy,
	}
	if ev.Cluster != "" {
		fields["cluster"] = ev.Cluster
	}
	switch ev.Kind {
	case EvClusterOpen:
		fields["lo"], fields["hi"] = ev.Lo, ev.Hi
	case EvBisectStep:
		fields["lo"], fields["hi"], fields["p"] = ev.Lo, ev.Hi, ev.P
	case EvClusterSettle, EvClusterExhaust:
		fields["p"], fields["tc_ms"] = ev.P, ev.TcMs
	case EvWinner:
		fields["config"] = ev.Config.String()
		fields["p"], fields["tc_ms"] = ev.P, ev.TcMs
		fields["evaluations"] = ev.Evaluations
	}
	o.Sink.Emit("search", fields)
}

// SearchTrace is a recording Observer: it retains the full decision stream
// in memory and answers post-hoc questions about it — the per-cluster
// T_c(p) curve (Fig. 3), the winning candidate's breakdown, and a
// human-readable explanation of the search. The zero value is ready to
// use.
type SearchTrace struct {
	Candidates []Candidate
	Events     []SearchEvent
}

// OnCandidate implements Observer.
func (t *SearchTrace) OnCandidate(c Candidate) { t.Candidates = append(t.Candidates, c) }

// OnSearch implements Observer.
func (t *SearchTrace) OnSearch(ev SearchEvent) { t.Events = append(t.Events, ev) }

// Reset clears the trace for reuse across searches.
func (t *SearchTrace) Reset() {
	t.Candidates = t.Candidates[:0]
	t.Events = t.Events[:0]
}

// CurvePoint is one point of a cluster's T_c(p) curve.
type CurvePoint struct {
	P          int
	TcompMs    float64
	TcommMs    float64
	ToverlapMs float64
	TcMs       float64
}

// Clusters lists the probed clusters in order of first appearance.
func (t *SearchTrace) Clusters() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range t.Candidates {
		if c.Cluster == "" || seen[c.Cluster] {
			continue
		}
		seen[c.Cluster] = true
		out = append(out, c.Cluster)
	}
	return out
}

// ClusterCurve reconstructs the T_c(p) curve the search traced for one
// cluster: every probed count with its cost breakdown, ascending in p.
// Memo-cached re-probes collapse into the first computation of each point.
func (t *SearchTrace) ClusterCurve(cluster string) []CurvePoint {
	byP := map[int]CurvePoint{}
	for _, c := range t.Candidates {
		if c.Cluster != cluster {
			continue
		}
		if _, ok := byP[c.P]; ok {
			continue
		}
		byP[c.P] = CurvePoint{
			P: c.P, TcompMs: c.TcompMs, TcommMs: c.TcommMs,
			ToverlapMs: c.ToverlapMs, TcMs: c.TcMs,
		}
	}
	out := make([]CurvePoint, 0, len(byP))
	for _, pt := range byP {
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P < out[j].P })
	return out
}

// Unimodal reports whether the curve's T_c values weakly decrease and then
// weakly increase — the Fig. 3 shape the bisection search assumes.
func Unimodal(points []CurvePoint) bool {
	descending := true
	for i := 1; i < len(points); i++ {
		switch {
		case points[i].TcMs < points[i-1].TcMs:
			if !descending {
				return false
			}
		case points[i].TcMs > points[i-1].TcMs:
			descending = false
		}
	}
	return true
}

// Winner returns the winning candidate's full breakdown, located by
// matching the last winner event's configuration against the candidate
// stream. ok is false if the trace has no winner.
func (t *SearchTrace) Winner() (Candidate, bool) {
	var winner *SearchEvent
	for i := range t.Events {
		if t.Events[i].Kind == EvWinner {
			winner = &t.Events[i]
		}
	}
	if winner == nil {
		return Candidate{}, false
	}
	want := winner.Config.String()
	for i := len(t.Candidates) - 1; i >= 0; i-- {
		if t.Candidates[i].Config.String() == want {
			return t.Candidates[i], true
		}
	}
	return Candidate{}, false
}

// Explain renders the recorded search as a human-readable report: the
// per-cluster T_c(p) curves, the decision path, and the winner's cost
// breakdown.
func (t *SearchTrace) Explain() string {
	var b strings.Builder
	strategy := ""
	for _, ev := range t.Events {
		if ev.Kind == EvSearchStart {
			strategy = ev.Strategy
		}
	}
	computed, cached := 0, 0
	for _, c := range t.Candidates {
		if c.Cached {
			cached++
		} else {
			computed++
		}
	}
	fmt.Fprintf(&b, "search strategy    : %s (%d candidates computed, %d memo hits)\n",
		strategy, computed, cached)

	winner, haveWinner := t.Winner()
	for _, cluster := range t.Clusters() {
		curve := t.ClusterCurve(cluster)
		fmt.Fprintf(&b, "cluster %s — T_c(p) curve (Fig. 3):\n", cluster)
		fmt.Fprintf(&b, "  %4s  %10s  %10s  %10s  %10s\n", "p", "T_comp", "T_comm", "T_ovl", "T_c")
		for _, pt := range curve {
			mark := " "
			if haveWinner && cluster == winner.Cluster && pt.P == winner.P {
				mark = "*"
			}
			fmt.Fprintf(&b, " %s%4d  %10.3f  %10.3f  %10.3f  %10.3f\n",
				mark, pt.P, pt.TcompMs, pt.TcommMs, pt.ToverlapMs, pt.TcMs)
		}
	}

	b.WriteString("decision path:\n")
	for _, ev := range t.Events {
		switch ev.Kind {
		case EvClusterOpen:
			fmt.Fprintf(&b, "  open %s: search p in [%d,%d]\n", ev.Cluster, ev.Lo, ev.Hi)
		case EvClusterSettle:
			fmt.Fprintf(&b, "  settle %s at p=%d (T_c %.3f ms): partially used, slower clusters stay closed\n",
				ev.Cluster, ev.P, ev.TcMs)
		case EvClusterExhaust:
			fmt.Fprintf(&b, "  exhaust %s at p=%d (T_c %.3f ms): fully used, a slower cluster may open\n",
				ev.Cluster, ev.P, ev.TcMs)
		case EvWinner:
			fmt.Fprintf(&b, "  winner %v: %d processors, T_c %.3f ms after %d evaluations\n",
				ev.Config, ev.P, ev.TcMs, ev.Evaluations)
		}
	}

	if haveWinner {
		b.WriteString("winning candidate:\n")
		fmt.Fprintf(&b, "  configuration : %v\n", winner.Config)
		fmt.Fprintf(&b, "  shares (A_i)  : %s\n", formatShares(winner.Config, winner.Shares))
		fmt.Fprintf(&b, "  T_comp %.3f + T_comm %.3f - T_overlap %.3f = T_c %.3f ms\n",
			winner.TcompMs, winner.TcommMs, winner.ToverlapMs, winner.TcMs)
		if winner.Charge != "" {
			fmt.Fprintf(&b, "  stagger charge: %s\n", winner.Charge)
		}
		if winner.StartupMs > 0 {
			fmt.Fprintf(&b, "  T_startup     : %.3f ms (excluded from T_c, per the paper)\n", winner.StartupMs)
		}
	}
	return b.String()
}

func formatShares(cfg cost.Config, shares []float64) string {
	if len(shares) != len(cfg.Clusters) {
		return fmt.Sprint(shares)
	}
	parts := make([]string, 0, len(shares))
	for i, name := range cfg.Clusters {
		if i < len(cfg.Counts) && cfg.Counts[i] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%.2f", name, shares[i]))
	}
	return strings.Join(parts, " ")
}
