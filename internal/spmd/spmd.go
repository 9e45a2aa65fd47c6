// Package spmd executes SPMD data parallel computations (Section 4.0's
// model: identical tasks, one per processor, each computing on its region
// of the data domain) over the simulated network substrate. It wires tasks
// to their topology neighbors, applies a partition vector, and runs the
// per-task body to completion, reporting the elapsed virtual time.
//
// Application packages (stencil, gauss) provide the task body; this package
// owns placement, spawning, neighbor exchange helpers, and synchronization.
//
//netpart:deterministic
package spmd

import (
	"errors"
	"fmt"

	"netpart/internal/core"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/simnet"
	"netpart/internal/topo"
)

// Metric names this package records into Job.Metrics: whole-job message
// totals and the transit time of every message. A task body observes its
// own cycles.
const (
	MetricMsgsSent   = "spmd.msgs_sent"
	MetricMsgsRecv   = "spmd.msgs_received"
	MetricBytesSent  = "spmd.bytes_sent"
	MetricBytesRecv  = "spmd.bytes_received"
	MetricDeliveryMs = "spmd.delivery_ms" // per-message transit time (send to mailbox)
)

// jobMetrics holds the pre-resolved instruments one job records into.
// With a nil registry every instrument is nil, and obs instruments are
// nil-safe, so instrumented paths cost only nil checks when disabled.
type jobMetrics struct {
	msgsSent   *obs.Counter
	msgsRecv   *obs.Counter
	bytesSent  *obs.Counter
	bytesRecv  *obs.Counter
	deliveryMs *obs.Histogram
}

func resolveMetrics(r *obs.Registry) jobMetrics {
	return jobMetrics{
		msgsSent:   r.Counter(MetricMsgsSent),
		msgsRecv:   r.Counter(MetricMsgsRecv),
		bytesSent:  r.Counter(MetricBytesSent),
		bytesRecv:  r.Counter(MetricBytesRecv),
		deliveryMs: r.Histogram(MetricDeliveryMs),
	}
}

// Task is the per-rank context handed to the program body. It wraps the
// simulated processor and exposes rank-addressed communication over the
// program's topology.
type Task struct {
	rank   int
	n      int
	pdus   int
	offset int // first PDU index owned by this task
	proc   *simnet.Proc
	peers  []*Task
	tp     topo.Topology
	m      jobMetrics
}

// Rank returns this task's rank (0-based, contiguous placement order).
func (t *Task) Rank() int { return t.rank }

// NumTasks returns the total number of tasks.
func (t *Task) NumTasks() int { return t.n }

// PDUs returns the number of PDUs assigned to this task by the partition
// vector.
func (t *Task) PDUs() int { return t.pdus }

// PDUOffset returns the index of the first PDU this task owns: partition
// vectors assign contiguous PDU ranges in rank order (Fig. 2).
func (t *Task) PDUOffset() int { return t.offset }

// NowMs returns the current virtual time.
func (t *Task) NowMs() float64 { return t.proc.Now() }

// Compute advances virtual time by n operations at the host cluster's
// speed for the given class.
func (t *Task) Compute(ops float64, class model.OpClass) {
	t.proc.AdvanceOps(ops, class)
}

// ComputeBatch accumulates consecutive Compute charges into one park (see
// simnet.Batch). Virtual time is bit-for-bit identical to
// per-charge Compute calls; only the scheduling overhead changes. The
// batch must be flushed (Done) before the task communicates.
type ComputeBatch struct {
	b simnet.Batch
}

// BeginCompute starts a compute batch at the current virtual time.
func (t *Task) BeginCompute() ComputeBatch {
	return ComputeBatch{b: t.proc.BeginBatch()}
}

// Ops accrues n operations of the given class to the batch.
//
//netpart:hotpath
func (c *ComputeBatch) Ops(n float64, class model.OpClass) {
	c.b.AdvanceOps(n, class)
}

// Done flushes the batch: the task sleeps until the accumulated virtual
// time and may then communicate.
func (c *ComputeBatch) Done() {
	c.b.Flush()
}

// Neighbors returns this task's neighbor ranks under the program topology.
func (t *Task) Neighbors() []int {
	return t.tp.Neighbors(t.rank, t.n)
}

// Send asynchronously sends bytes (with an optional payload carried for
// application correctness, not charged to the network) to the given rank.
func (t *Task) Send(dst int, bytes int, payload interface{}) {
	t.m.msgsSent.Inc()
	t.m.bytesSent.Add(int64(bytes))
	t.proc.Send(t.peers[dst].proc, bytes, payload)
}

// Recv blocks for the next message from the given rank and returns its
// payload.
func (t *Task) Recv(src int) interface{} {
	msg := t.proc.Recv(t.peers[src].proc)
	t.m.msgsRecv.Inc()
	t.m.bytesRecv.Add(int64(msg.Bytes))
	return msg.Payload
}

// EndCycle marks the end of one SPMD cycle for this task. It records
// nothing: the application observes its own cycles (the stencil's cycle
// driver does, on every runtime).
func (t *Task) EndCycle() {}

// ExchangeBorders performs one synchronous communication cycle in the
// paper's canonical form — an asynchronous send to every neighbor followed
// by a blocking receive from every neighbor — and returns the received
// payloads keyed by neighbor rank. payload(nb) supplies the data sent to
// each neighbor.
func (t *Task) ExchangeBorders(bytes int, payload func(nb int) interface{}) map[int]interface{} {
	ns := t.Neighbors()
	for _, nb := range ns {
		var p interface{}
		if payload != nil {
			p = payload(nb)
		}
		t.Send(nb, bytes, p)
	}
	got := make(map[int]interface{}, len(ns))
	for _, nb := range ns {
		got[nb] = t.Recv(nb)
	}
	return got
}

// Job describes one SPMD execution: the network, the processor
// configuration with its contiguous placement, the partition vector, the
// communication topology, and the per-task body.
type Job struct {
	Net *model.Network
	// Placement maps ranks to processors (use topo.Contiguous over the
	// chosen configuration).
	Placement topo.Placement
	// Vector assigns PDUs per rank; len(Vector) must equal the task count.
	Vector core.Vector
	// Topology is the communication pattern used by ExchangeBorders.
	Topology topo.Topology
	// Body is the task program, run once per rank.
	Body func(*Task)
	// SimOptions configure the underlying simulator (e.g. jitter).
	SimOptions []simnet.Option
	// Metrics, when non-nil, receives the message counters and the
	// delivery histogram (the Metric* names). Nil disables metric
	// recording at no cost.
	Metrics *obs.Registry
}

// Execution errors.
var (
	ErrVectorMismatch = errors.New("spmd: partition vector length differs from task count")
	ErrNoTasks        = errors.New("spmd: job has no tasks")
)

// Report summarizes one execution.
type Report struct {
	// ElapsedMs is the virtual time at which the last task finished.
	ElapsedMs float64
	// Segments and Procs carry substrate statistics.
	Segments []simnet.SegmentStats
	Procs    []simnet.ProcStats
}

// Run executes the job to completion and reports elapsed virtual time.
func Run(job Job) (Report, error) {
	n := job.Placement.NumTasks()
	if n == 0 {
		return Report{}, ErrNoTasks
	}
	if len(job.Vector) != n {
		return Report{}, fmt.Errorf("%w: %d vs %d", ErrVectorMismatch, len(job.Vector), n)
	}
	if job.Body == nil {
		return Report{}, errors.New("spmd: job has no body")
	}
	if err := checkCapacity(job.Net, job.Placement); err != nil {
		return Report{}, err
	}
	m := resolveMetrics(job.Metrics)
	opts := job.SimOptions
	if job.Metrics != nil {
		opts = append(append([]simnet.Option(nil), opts...),
			simnet.WithMessageObserver(func(d simnet.Delivery) {
				m.deliveryMs.Observe(d.DeliveredAtMs - d.SentAtMs)
			}))
	}
	sim, err := simnet.New(job.Net, opts...)
	if err != nil {
		return Report{}, err
	}
	tasks := make([]*Task, n)
	offset := 0
	for rank := 0; rank < n; rank++ {
		tasks[rank] = &Task{
			rank:   rank,
			n:      n,
			pdus:   job.Vector[rank],
			offset: offset,
			peers:  tasks,
			tp:     job.Topology,
			m:      m,
		}
		offset += job.Vector[rank]
	}
	for rank := 0; rank < n; rank++ {
		t := tasks[rank]
		t.proc = sim.Spawn(fmt.Sprintf("task-%d", rank), job.Placement.ClusterOf(rank),
			func(*simnet.Proc) { job.Body(t) })
	}
	if err := sim.Run(); err != nil {
		return Report{}, err
	}
	return Report{
		ElapsedMs: sim.Now(),
		Segments:  sim.Stats(),
		Procs:     sim.ProcStats(),
	}, nil
}

// checkCapacity refuses a placement that puts more tasks on a cluster than
// the cluster has processors: one task per processor is the paper's model,
// and the simulator would otherwise run the extra tasks on phantom hardware.
func checkCapacity(net *model.Network, pl topo.Placement) error {
	tasks := make(map[string]int)
	for _, p := range pl.Procs {
		tasks[p.Cluster]++
	}
	for _, c := range net.Clusters {
		if tasks[c.Name] > c.Procs {
			return fmt.Errorf("spmd: placement puts %d tasks on cluster %q, which has %d processors",
				tasks[c.Name], c.Name, c.Procs)
		}
	}
	return nil
}
