package core

import (
	"fmt"

	"netpart/internal/cost"
	"netpart/internal/model"
)

// Estimator computes the per-cycle elapsed-time estimate T_c (Eq. 4–6) for
// candidate processor configurations, using the program's callbacks and the
// benchmarked communication cost functions.
//
// An Estimator is not safe for concurrent use: Estimate reuses internal
// scratch buffers and mutates the evaluation counter. Use Clone to give
// each goroutine its own instance (they share the read-only network, cost
// table, and annotations).
type Estimator struct {
	Net   *model.Network
	Costs *cost.Table
	Ann   *Annotations

	// RouterStation selects whether clusters whose tasks communicate across
	// the router are charged one extra contending station (p+1), as
	// Section 3.0 specifies. Section 6.0's worked example composes costs
	// without the extra station; the flag allows reproducing either reading
	// (ablation A6 in DESIGN.md). Default true.
	RouterStation bool

	// Observer, when non-nil, receives one Candidate per evaluation (Estimate
	// call or search probe) plus
	// the control-flow events the Partition* searches emit. Nil (the
	// default) adds no work and no allocations to the estimate hot path;
	// a non-nil observer pays for an independent copy of each candidate's
	// configuration and shares.
	Observer Observer

	// evaluations counts Eq. 3/6 computations, the paper's measure of
	// partitioning overhead.
	evaluations int

	// eval is the evaluator behind Estimate and every search. Estimate
	// returns Shares aliased into its buffers; see the Estimate doc
	// comment for the resulting ownership rule.
	eval DeltaEval
}

// NewEstimator returns an estimator with the paper's Section 3.0 semantics
// (router charged as an extra station).
func NewEstimator(net *model.Network, costs *cost.Table, ann *Annotations) (*Estimator, error) {
	if err := ann.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{Net: net, Costs: costs, Ann: ann, RouterStation: true}, nil
}

// Clone returns an independent estimator over the same network, cost table,
// and annotations (all treated as read-only), with its own scratch buffers
// and a fresh evaluation counter. The Observer is deliberately not carried
// over — observers are rarely goroutine-safe; attach one per clone if
// needed. No search runs in parallel; the tests take fresh estimators from
// Clone to compare a search's answer against an independent evaluation.
func (e *Estimator) Clone() *Estimator {
	return &Estimator{
		Net:           e.Net,
		Costs:         e.Costs,
		Ann:           e.Ann,
		RouterStation: e.RouterStation,
	}
}

// Estimate is the cost breakdown of one candidate configuration.
type Estimate struct {
	Config cost.Config
	// Shares are the Eq. 3 real PDU shares per cluster (indexed like
	// Config.Clusters). The slice aliases the estimator's scratch buffer
	// and is valid until the estimator's next Estimate call; callers that
	// retain an Estimate across calls must copy it (see Detach).
	Shares []float64
	// TcompMs is the per-cycle computation time of the dominant computation
	// phase (equal across processors by load balance).
	TcompMs float64
	// TcommMs is the per-cycle cost of the dominant communication phase
	// (Eq. 2 composition across clusters).
	TcommMs float64
	// ToverlapMs is the overlappable portion (min(Tcomp, Tcomm) when the
	// dominant communication phase overlaps the dominant computation
	// phase).
	ToverlapMs float64
	// TcMs = TcompMs + TcommMs - ToverlapMs (Eq. 6).
	TcMs float64
	// BytesPerMsg is the message size the communication estimate used.
	BytesPerMsg float64
	// StartupMs estimates T_startup, the initial scatter of the data
	// domain from the first processor (zero unless the annotations declare
	// StartupBytesPerPDU).
	StartupMs float64
	// Charge names what priced a STEN-1 stagger (DESIGN §1), or is empty.
	Charge string
}

// The stagger charges (Estimate.Charge).
const ChargeStagger, ChargePair, ChargeTwoOwn = "measured stagger", "measured pair", "2·own (not measured)"

// Detach returns the estimate with its own copies of the slices that may
// alias estimator scratch (Shares) or a reused search probe vector
// (Config.Counts), making it safe to retain across further Estimate calls.
func (est Estimate) Detach() Estimate {
	est.Config.Counts = append([]int(nil), est.Config.Counts...)
	est.Shares = append([]float64(nil), est.Shares...)
	return est
}

// ElapsedMs extrapolates total elapsed time for the annotated cycle count:
// T_elapsed = I·T_c (startup excluded, as in the paper's measurements).
func (e Estimate) ElapsedMs(cycles int) float64 { return float64(cycles) * e.TcMs }

// Evaluations returns how many Eq. 3/6 computations (Estimate calls and
// search probes) have run, the O(K·log2 P) overhead quantity of Section
// 5.0.
func (e *Estimator) Evaluations() int { return e.evaluations }

// ResetEvaluations zeroes the evaluation counter.
func (e *Estimator) ResetEvaluations() { e.evaluations = 0 }

// Estimate computes T_c for the given configuration.
//
// Per Section 5.0: the partition vector follows from Eq. 3 (or the general
// non-linear balance when the dominant computation phase declares TotalOps),
// T_comp from Eq. 4 evaluated through the callbacks, T_comm from the
// benchmarked cost function selected by the dominant communication phase's
// topology, and T_overlap = min(T_comp, T_comm) if that phase is overlapped
// with the dominant computation phase. The estimator's evaluator is bound
// to cfg.Clusters and probed at cfg's own counts.
//
// The returned Estimate's Shares alias the estimator's reusable buffer
// (the nil-Observer path performs no heap allocations); they are valid
// until the next Estimate call on this estimator. Retain with Detach.
//
//netpart:hotpath
func (e *Estimator) Estimate(cfg cost.Config) (est Estimate, err error) {
	err = e.eval.bind(e, cfg, nil)
	if err == nil && cfg.Total() == 0 {
		err = ErrNoProcessors
	}
	if err != nil {
		e.evaluations++
		return Estimate{Config: cfg}, err
	}
	err = e.eval.eval(&est, 0, cfg.Counts[0], whole)
	est.Config = cfg
	return est, err
}

// observe reports one candidate to the observer, if any; est must not
// alias reusable buffers (Detach it first).
func (e *Estimator) observe(cluster string, p int, est Estimate, cached bool) {
	if e.Observer == nil {
		return
	}
	e.Observer.OnCandidate(Candidate{
		Cluster:    cluster,
		P:          p,
		Config:     est.Config,
		Shares:     est.Shares,
		TcompMs:    est.TcompMs,
		TcommMs:    est.TcommMs,
		ToverlapMs: est.ToverlapMs,
		TcMs:       est.TcMs,
		StartupMs:  est.StartupMs,
		Charge:     est.Charge,
		Evaluation: e.evaluations,
		Cached:     cached,
	})
}

// searchEvent forwards one search control-flow step to the observer.
func (e *Estimator) searchEvent(ev SearchEvent) {
	if e.Observer != nil {
		e.Observer.OnSearch(ev)
	}
}

// generalShares mirrors DecomposeGeneral but returns the per-cluster real
// shares instead of an integer vector.
func generalShares(net *model.Network, cfg cost.Config, numPDUs int, class model.OpClass, ops func(float64) float64) ([]float64, error) {
	v, err := DecomposeGeneral(net, cfg, numPDUs, class, ops)
	if err != nil {
		return nil, err
	}
	shares := make([]float64, len(cfg.Clusters))
	rank := 0
	for i := range cfg.Clusters {
		if cfg.Counts[i] == 0 {
			continue
		}
		sum := 0
		for j := 0; j < cfg.Counts[i]; j++ {
			sum += v[rank]
			rank++
		}
		shares[i] = float64(sum) / float64(cfg.Counts[i])
	}
	return shares, nil
}

// String renders the estimate compactly.
func (est Estimate) String() string {
	return fmt.Sprintf("cfg=[%s] Tcomp=%.3f Tcomm=%.3f Tovl=%.3f Tc=%.3f ms",
		est.Config, est.TcompMs, est.TcommMs, est.ToverlapMs, est.TcMs)
}
