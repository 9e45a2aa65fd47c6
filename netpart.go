// Package netpart is a runtime partitioning library for data parallel
// computations on heterogeneous workstation networks, reproducing
// Weissman & Grimshaw, "Network Partitioning of Data Parallel
// Computations" (HPDC 1994).
//
// Given a network model (homogeneous clusters on private-bandwidth
// segments joined by a router), a table of benchmarked topology-specific
// communication cost functions, and program annotations supplied as
// callback functions, the library chooses the number and type of
// processors to apply to a computation and a load-balanced decomposition
// of the data domain (the partition vector) that minimizes estimated
// per-cycle elapsed time.
//
// The package is a facade over the implementation packages:
//
//   - the network model and the paper's testbeds (internal/model)
//   - communication topologies (internal/topo)
//   - Eq. 1 cost functions and least-squares fitting (internal/cost)
//   - a deterministic discrete-event network simulator (internal/simnet)
//   - offline communication benchmarking (internal/commbench)
//   - the partitioning method itself (internal/core)
//   - an SPMD runtime over the simulator (internal/spmd)
//   - reliable UDP message passing in the style of MMPS (internal/mmps)
//   - cluster managers and the availability protocol (internal/manager)
//   - the evaluation applications (internal/stencil, internal/gauss)
//   - decomposition baselines (internal/balance)
//   - metrics and structured trace recording (internal/obs), HTTP
//     telemetry exposition (internal/obs/serve), and estimate-drift
//     monitoring (internal/obs/drift)
//
// Quick start:
//
//	net := netpart.PaperTestbed()
//	costs, _ := netpart.BenchmarkCosts(net, netpart.Topo1D())
//	ann := netpart.StencilAnnotations(600, netpart.STEN2, 10)
//	res, _ := netpart.Partition(net, costs, ann)
//	fmt.Println(res.Config, res.Vector, res.TcMs)
package netpart

import (
	"io"

	"netpart/internal/annspec"
	"netpart/internal/balance"
	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/faults"
	"netpart/internal/gauss"
	"netpart/internal/manager"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/obs/drift"
	"netpart/internal/obs/serve"
	"netpart/internal/particles"
	"netpart/internal/repart"
	"netpart/internal/stencil"
	"netpart/internal/topo"
)

// Network model types.
type (
	// Network is the heterogeneous network: clusters, segments, router.
	Network = model.Network
	// Cluster is a homogeneous processor group on one segment.
	Cluster = model.Cluster
	// Segment is a private-bandwidth network segment.
	Segment = model.Segment
	// Router joins segments with a per-byte transit delay.
	Router = model.Router
	// ProcID names one processor.
	ProcID = model.ProcID
	// OpClass selects integer or floating-point instruction speed.
	OpClass = model.OpClass
)

// Operation classes.
const (
	OpFloat = model.OpFloat
	OpInt   = model.OpInt
)

// Cost model types.
type (
	// CostTable holds benchmarked Eq. 1 models per (cluster, topology)
	// plus router/coercion penalties per cluster pair.
	CostTable = cost.Table
	// CostParams are the four Eq. 1 constants.
	CostParams = cost.Params
	// Config is a processor configuration (P_i per cluster).
	Config = cost.Config
	// Observation is one communication benchmark measurement.
	Observation = cost.Observation
)

// Partitioning types.
type (
	// Annotations carries the program description as callbacks.
	Annotations = core.Annotations
	// ComputationPhase annotates one computation phase.
	ComputationPhase = core.ComputationPhase
	// CommunicationPhase annotates one communication phase.
	CommunicationPhase = core.CommunicationPhase
	// Estimator computes T_c estimates for candidate configurations.
	Estimator = core.Estimator
	// Estimate is one configuration's cost breakdown.
	Estimate = core.Estimate
	// Result is the partitioning output: configuration, vector, estimate.
	Result = core.Result
	// Vector is the partition vector (PDUs per task rank).
	Vector = core.Vector
)

// Topology is one synchronous communication pattern.
type Topology = topo.Topology

// Stencil types.
type (
	// StencilVariant selects STEN-1 or STEN-2.
	StencilVariant = stencil.Variant
)

// Stencil variants.
const (
	STEN1 = stencil.STEN1
	STEN2 = stencil.STEN2
)

// Transport is a reliable message-passing endpoint (UDP or in-memory).
type Transport = mmps.Transport

// PaperTestbed returns the paper's Section 6.0 evaluation network:
// 6 Sun4 Sparc2s and 6 Sun4 IPCs on two ethernet segments joined by a
// router.
func PaperTestbed() *Network { return model.PaperTestbed() }

// Figure1Network returns the three-cluster example network of Fig. 1.
func Figure1Network() *Network { return model.Figure1Network() }

// PaperCostTable returns the cost constants published in Section 6.0.
func PaperCostTable() *CostTable { return cost.PaperTable() }

// Topo1D returns the 1-D (line) topology; see also TopoByName for "ring",
// "2-D", "tree", "broadcast", and "all-to-all".
func Topo1D() Topology { return topo.OneD{} }

// TopoByName resolves a canonical topology name.
func TopoByName(name string) (Topology, error) { return topo.ByName(name) }

// BenchmarkCosts runs the offline benchmarking step of Section 3.0 on the
// simulated network for the given topologies (Topo1D() if none are given)
// and returns the fitted cost table.
func BenchmarkCosts(net *Network, topologies ...Topology) (*CostTable, error) {
	if len(topologies) == 0 {
		topologies = []Topology{topo.OneD{}}
	}
	res, err := commbench.Run(net, topologies, commbench.DefaultGrid())
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

// NewEstimator builds a T_c estimator from a network, cost table, and
// annotations.
func NewEstimator(net *Network, costs *CostTable, ann *Annotations) (*Estimator, error) {
	return core.NewEstimator(net, costs, ann)
}

// Partition runs the Section 5.0 heuristic: fastest clusters first,
// bisection over the unimodal T_c curve within each, opening a slower
// cluster only when the faster one is exhausted.
func Partition(net *Network, costs *CostTable, ann *Annotations) (Result, error) {
	est, err := core.NewEstimator(net, costs, ann)
	if err != nil {
		return Result{}, err
	}
	return core.Partition(est)
}

// Decompose computes the Eq. 3 load-balanced integer partition vector for
// an explicit configuration.
func Decompose(net *Network, cfg Config, numPDUs int, class OpClass) (Vector, error) {
	return core.Decompose(net, cfg, numPDUs, class)
}

// EqualDecompose is the heterogeneity-blind baseline: an equal split.
func EqualDecompose(numPDUs, tasks int) (Vector, error) {
	return balance.EqualVector(numPDUs, tasks)
}

// StencilAnnotations returns the Section 4.0 callbacks for the N×N
// five-point stencil.
func StencilAnnotations(n int, v StencilVariant, iters int) *Annotations {
	return stencil.Annotations(n, v, iters)
}

// GaussAnnotations returns the callbacks for Gaussian elimination with
// partial pivoting (broadcast topology, non-uniform complexity).
func GaussAnnotations(n int) *Annotations { return gauss.Annotations(n) }

// StencilOptions selects the policies of a stencil run on either runtime:
// load (WorkFactor, Slowdown, Injector), run-to-convergence (Tol), dynamic
// repartitioning with real row migration (RebalanceEvery, Trigger,
// Planner) — the §7 future-work strategy for load imbalance —,
// observation (Metrics, Trace, the Cycles drift-monitor hookup), the
// simulator's own settings (SimOptions, RetransmitMs, TimeOnly) and the
// live runtime's fault tolerance (FT). The zero value is a plain run; an
// option a runtime cannot honour is refused by name.
type StencilOptions = stencil.Options

// StencilFT configures the fault-tolerant live runtime: buddy
// checkpointing, bounded-silence verdicts, a recovery barrier,
// re-partitioning over the survivors, and rollback to the last complete
// checkpoint. The result is bit-for-bit identical to a fault-free run.
type StencilFT = stencil.FT

// RunStencilSim executes the distributed stencil on the simulated network
// and returns the virtual elapsed time and final grid.
func RunStencilSim(net *Network, cfg Config, vec Vector, v StencilVariant, n, iters int, opts StencilOptions) (stencil.Result, error) {
	return stencil.Sim(net, cfg, vec, v, n, iters, opts)
}

// RunStencilLive executes the distributed stencil over real concurrent
// tasks communicating through mmps transports.
func RunStencilLive(world []Transport, vec Vector, v StencilVariant, n, iters int, opts StencilOptions) (stencil.Result, error) {
	return stencil.Live(world, vec, v, n, iters, opts)
}

// SequentialStencil is the single-processor reference solver.
func SequentialStencil(grid [][]float64, iters int) [][]float64 {
	return stencil.Sequential(grid, iters)
}

// NewStencilGrid returns the deterministic initial condition used by the
// experiments (hot north edge).
func NewStencilGrid(n int) [][]float64 { return stencil.NewGrid(n) }

// NewUDPWorld creates n reliable message-passing endpoints over loopback
// UDP sockets (the MMPS substrate).
func NewUDPWorld(n int, opts ...mmps.Option) ([]Transport, error) {
	conns, err := mmps.NewUDPWorld(n, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]Transport, n)
	for i, c := range conns {
		out[i] = c
	}
	return out, nil
}

// NewLocalWorld creates n in-memory endpoints with the same interface.
func NewLocalWorld(n int, opts ...mmps.Option) ([]Transport, error) {
	locals, err := mmps.NewLocalWorld(n, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]Transport, n)
	for i, l := range locals {
		out[i] = l
	}
	return out, nil
}

// NewClusterManager creates a cluster manager with the default threshold
// policy.
func NewClusterManager(c *Cluster) *manager.Manager {
	return manager.New(c, manager.DefaultPolicy)
}

// PartitionGlobal runs the general-case search (the paper's §5.0 future
// work): multi-start pairwise-coordinate descent over the full
// configuration lattice, robust to the multimodal T_c surfaces that trap
// the locality-first heuristic.
func PartitionGlobal(net *Network, costs *CostTable, ann *Annotations) (Result, error) {
	est, err := core.NewEstimator(net, costs, ann)
	if err != nil {
		return Result{}, err
	}
	return core.PartitionGlobal(est)
}

// MetasystemTestbed returns the §7 metasystem: the paper's workstation
// testbed plus an 8-node multicomputer on a fast private segment.
func MetasystemTestbed() *Network { return model.MetasystemTestbed() }

// CompileAnnotations compiles a declarative JSON annotation specification
// (see specs/) into callbacks — the §7 "compiler-generated callbacks"
// direction.
func CompileAnnotations(r io.Reader) (*Annotations, error) {
	return annspec.CompileReader(r)
}

// SaveCostTable writes a fitted cost table as JSON.
func SaveCostTable(w io.Writer, t *CostTable) error { return cost.WriteTable(w, t) }

// LoadCostTable reads a cost table written by SaveCostTable.
func LoadCostTable(r io.Reader) (*CostTable, error) { return cost.ReadTable(r) }

// ParticleSystem is the particle-simulation application state (the third
// PDU type of §4.0: a PDU is a cell of particles).
type ParticleSystem = particles.System

// NewParticleSystem creates a deterministic particle system; clump > 0
// concentrates that fraction of the particles in the first tenth of the
// domain.
func NewParticleSystem(cells, n int, seed uint64, clump float64) ParticleSystem {
	return particles.NewSystem(cells, n, seed, clump)
}

// ParticleAnnotations returns the partitioning callbacks for the particle
// simulation.
func ParticleAnnotations(cells, n, steps int) *Annotations {
	return particles.Annotations(cells, n, steps)
}

// RunParticlesSim executes the distributed particle simulation on the
// simulated network (bit-exact with SequentialParticles).
func RunParticlesSim(net *Network, cfg Config, vec Vector, s ParticleSystem, steps int) (particles.SimResult, error) {
	return particles.RunSim(net, cfg, vec, s, steps)
}

// SequentialParticles is the single-processor reference.
func SequentialParticles(s ParticleSystem, steps int) ParticleSystem {
	return particles.Sequential(s, steps)
}

// WeightedDecompose computes a density-aware partition vector for PDUs of
// unequal weight (the general decomposition specialized to per-PDU
// weights).
func WeightedDecompose(net *Network, cfg Config, weights []int, class OpClass) (Vector, error) {
	return particles.WeightedVector(net, cfg, weights, class)
}

// Collective operations over transports (each rank calls with its own
// endpoint; rank 0 is the root where one applies).
var (
	// Bcast distributes the root's payload to every rank.
	Bcast = mmps.Bcast
	// Gather collects every rank's payload at the root.
	Gather = mmps.Gather
	// AllGather gives every rank all payloads.
	AllGather = mmps.AllGather
)

// Observability types: search tracing for the partitioner and runtime
// metrics for the SPMD executions.
type (
	// Observer receives every candidate evaluation and search step of a
	// partitioning run (set it on an Estimator before searching).
	Observer = core.Observer
	// PartitionCandidate is one evaluated (configuration, cluster, p) point
	// with its full cost breakdown.
	PartitionCandidate = core.Candidate
	// PartitionSearchEvent is one search transition: cluster opened,
	// bisection step, settle/exhaust, winner.
	PartitionSearchEvent = core.SearchEvent
	// SearchTrace is an in-memory Observer: it records candidates and
	// events and can explain the decision or dump per-cluster T_c curves.
	SearchTrace = core.SearchTrace
	// MultiObserver fans observations out to several observers.
	MultiObserver = core.MultiObserver
	// Metrics is a registry of named counters, gauges, and latency
	// histograms (nil-safe: a nil registry records nothing).
	Metrics = obs.Registry
	// TraceRecorder streams structured events as JSONL and retains them in
	// memory for later export.
	TraceRecorder = obs.Recorder
	// TraceEvent is one recorded event.
	TraceEvent = obs.Event
	// CurvePoint is one point of a recorded per-cluster T_c(p) curve.
	CurvePoint = core.CurvePoint
)

// Unimodal reports whether a recorded T_c(p) curve weakly decreases to a
// single minimum and then weakly increases — the Fig. 3 shape the
// bisection search depends on.
func Unimodal(points []CurvePoint) bool { return core.Unimodal(points) }

// PartitionWith runs the Section 5.0 heuristic on a caller-built estimator;
// use this instead of Partition to attach an Observer (or tune the
// estimator) before searching.
func PartitionWith(est *Estimator) (Result, error) { return core.Partition(est) }

// SinkObserver adapts a TraceRecorder into an Observer that streams every
// candidate evaluation and search step as structured events.
func SinkObserver(rec *TraceRecorder) Observer { return core.SinkObserver{Sink: rec} }

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTraceRecorder creates an event recorder; w may be nil for memory-only
// recording, otherwise each event is also written as one JSON line.
func NewTraceRecorder(w io.Writer) *TraceRecorder { return obs.NewRecorder(w) }

// WriteChromeTrace converts recorded span events to the Chrome trace-event
// JSON format (open the output in chrome://tracing or Perfetto).
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// Fault injection and tolerance types.
type (
	// FaultSchedule is a parsed fault scenario: crashes, packet drops,
	// delays, duplications, compute slowdowns, and network partitions.
	FaultSchedule = faults.Schedule
	// FaultInjector decides packet fates and rank fault schedules;
	// FaultEngine is its deterministic seedable implementation.
	FaultInjector = faults.Injector
	// FaultEngine is the deterministic injector over a FaultSchedule.
	FaultEngine = faults.Engine
	// RecoveryEvent records one completed failure recovery.
	RecoveryEvent = stencil.RecoveryEvent
	// Fault clause types, for building schedules programmatically instead
	// of via ParseFaultSchedule.
	FaultCrash = faults.Crash
	FaultDrop  = faults.Drop
	FaultDelay = faults.Delay
	FaultDup   = faults.Dup
	FaultSlow  = faults.Slow
	FaultPart  = faults.Part
)

// ParseFaultSchedule parses the schedule grammar, e.g.
// "crash:3@12; drop:0.05; delay:0.1,2; dup:0.1; slow:2,4@5-15; part:6@100-200".
func ParseFaultSchedule(s string) (FaultSchedule, error) { return faults.Parse(s) }

// NewFaultEngine builds the deterministic injector for a schedule: the same
// seed always yields the same fault sequence. m may be nil.
func NewFaultEngine(sched FaultSchedule, seed uint64, m *Metrics) *FaultEngine {
	return faults.NewEngine(sched, seed, m)
}

// WithFaultInjector routes every packet of an mmps world (UDP or local)
// through a fault injector, below the reliability layer: results are
// unchanged, only timing and retransmissions shift — except for crash
// faults, which the fault-tolerant runtime turns into recoveries.
func WithFaultInjector(inj FaultInjector) mmps.Option { return mmps.WithInjector(inj) }

// Live telemetry and drift monitoring types. TelemetryServer exposes a
// Metrics registry over HTTP (Prometheus text on /metrics, JSON on
// /metrics.json, /healthz, /debug/pprof/); DriftMonitor subscribes to a
// runtime's per-cycle measurements (as a CycleSink) and flags sustained
// deviation from the estimator's T_comp/T_comm predictions.
type (
	// TelemetryServer is a running HTTP telemetry endpoint.
	TelemetryServer = serve.Server
	// CycleSink receives per-task per-cycle runtime observations.
	CycleSink = obs.CycleSink
	// DriftMonitor is a CycleSink comparing measured cycle times against
	// estimator predictions (EWMA + windowed quantiles, threshold events).
	DriftMonitor = drift.Monitor
	// DriftConfig parameterizes a DriftMonitor.
	DriftConfig = drift.Config
	// MetricsExport is a stable, name-sorted exposition snapshot of a
	// Metrics registry.
	MetricsExport = obs.Export
)

// Continuous repartitioning (internal/repart): the drift-triggered
// trigger → plan → migrate pipeline shared by the adaptive runtimes and
// fault recovery. A RepartPlanner runs the incremental restreaming search
// with migration cost (MigrationCost) as an explicit objective term; a
// RepartEngine adds the rank-0-decides/broadcast exchange plus metrics,
// trace, and observer export; a RepartDriftTrigger latches drift events
// (DriftConfig.Notify) for the next repartitioning round.
type (
	// RepartPlan records one repartitioning decision.
	RepartPlan = repart.Plan
	// RepartPlanner is the incremental migration-cost-aware planner.
	RepartPlanner = repart.Planner
	// RepartPlannerConfig tunes the planner's objective and search.
	RepartPlannerConfig = repart.PlannerConfig
	// RepartEngine couples a planner with the decision protocol and
	// observability export.
	RepartEngine = repart.Engine
	// RepartTrigger gates drift-triggered repartitioning rounds.
	RepartTrigger = repart.Trigger
	// RepartDriftTrigger is the edge-triggered latch fed by drift events.
	RepartDriftTrigger = repart.DriftTrigger
	// MigrationCost is the T_mig objective term (see MigrationFromParams
	// for deriving it from a cluster's Eq. 1 fit).
	MigrationCost = cost.Migration
)

// NewRepartPlanner builds the incremental repartitioning planner.
func NewRepartPlanner(cfg RepartPlannerConfig) *RepartPlanner { return repart.NewPlanner(cfg) }

// MigrationCostFromParams derives T_mig constants from a cluster's Eq. 1
// fit: |C1| prices the migration round, |C3| the payload per byte.
func MigrationCostFromParams(p CostParams, rowBytes float64) MigrationCost {
	return cost.MigrationFromParams(p, rowBytes)
}
