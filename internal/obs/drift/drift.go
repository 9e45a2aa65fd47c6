// Package drift watches a running partition for divergence from the
// estimator's predictions. The paper's partitioning decisions are made
// once, from T_comp/T_comm estimates; this monitor closes the loop at run
// time by subscribing to per-cycle runtime instrumentation (as an
// obs.CycleSink) and comparing each task's measured cycle and exchange
// times against the predicted ones. Per task it maintains an EWMA of the
// deviation percentage plus a sliding window for quantiles; when the
// smoothed deviation crosses the configured threshold it emits one
// structured "drift" event on the recorder and bumps the drift.events
// counter. Gauges (`drift.pct{task="k"}`, `drift.comm_pct{task="k"}`,
// each only for a component with a prediction, and drift.worst_pct over
// the cycles past warmup) track the smoothed deviations continuously, so
// a scraper — or a future restreaming repartitioner — sees drift as it
// develops, not only when it alarms.
package drift

import (
	"fmt"
	"math"
	"sync"

	"netpart/internal/obs"
	"netpart/internal/trace"
)

// Defaults for Config's zero fields.
const (
	DefaultThresholdPct = 25.0
	DefaultWarmup       = 3
)

// The smoothing every monitor uses: an EWMA with factor alpha (in (0, 1];
// larger reacts faster) and a per-task sliding window of the last window
// deviations for the quantiles reported in events.
const (
	alpha  = 0.25
	window = 32
)

// Config parameterizes a Monitor. The zero value of every field but the
// predictions is usable: zero ThresholdPct and Warmup take the defaults
// above. A prediction of 0 (or non-finite) disables deviation
// tracking for that component, matching trace.DeviationPct.
type Config struct {
	// PredCycleMs is the estimator's predicted per-cycle total for one
	// task, T_comp + T_comm, in milliseconds.
	PredCycleMs float64
	// PredCommMs is the predicted communication portion, T_comm, in
	// milliseconds.
	PredCommMs float64
	// ThresholdPct fires an event when |EWMA deviation| crosses it.
	ThresholdPct float64
	// Warmup is the task's cycle, counted from 1, at which the EWMA
	// starts and events may fire, so start-of-run jitter does not alarm:
	// the cycles before it enter only the window for the quantiles.
	Warmup int
	// Notify, when non-nil, receives every fired event synchronously
	// (outside the monitor's lock, from the observing goroutine). It is
	// how drift events drive action rather than just telemetry — e.g.
	// latching a repart.DriftTrigger so the live runtime repartitions.
	// Implementations must be safe for concurrent calls.
	Notify func(Event)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ThresholdPct == 0 {
		c.ThresholdPct = DefaultThresholdPct
	}
	if c.Warmup == 0 {
		c.Warmup = DefaultWarmup
	}
	return c
}

// Event is the payload of one emitted drift alarm, also recorded as a
// flat "drift" JSONL event on the recorder.
type Event struct {
	Task       int     `json:"task"`
	Cycle      int     `json:"cycle"`
	Component  string  `json:"component"` // "cycle" or "comm"
	MeasuredMs float64 `json:"measured_ms"`
	PredMs     float64 `json:"pred_ms"`
	DevPct     float64 `json:"dev_pct"`  // this observation's deviation
	EwmaPct    float64 `json:"ewma_pct"` // smoothed deviation that crossed
	P90Pct     float64 `json:"p90_pct"`  // windowed |deviation| p90
}

// component tracks one deviation stream (cycle or comm) for one task.
type component struct {
	n       int
	ewma    float64
	window  []float64 // |deviation| ring, len == cap once warm
	next    int
	alarmed bool
	gauge   *obs.Gauge
}

// observe folds one deviation in and reports whether the smoothed value
// just crossed the threshold (armed edge, not level). The EWMA starts at the
// first warm cycle, the warmup-th, from 0 (on prediction): a cycle inside
// the warmup enters only the window, so a start-of-run transient cannot
// carry into the first observation that may fire, and the first warm cycle
// counts with weight alpha like every later one, so one cycle alone — the
// short phase of two ranks that leapfrog, say — cannot fire either.
func (s *component) observe(devPct, threshold float64, warmup int) (fired bool) {
	s.n++
	if len(s.window) < cap(s.window) {
		s.window = append(s.window, math.Abs(devPct))
	} else {
		s.window[s.next] = math.Abs(devPct)
		s.next = (s.next + 1) % len(s.window)
	}
	if s.n < warmup {
		return false
	}
	s.ewma = alpha*devPct + (1-alpha)*s.ewma
	s.gauge.Set(s.ewma)
	over := math.Abs(s.ewma) >= threshold
	if !over {
		s.alarmed = false
		return false
	}
	if s.alarmed {
		return false
	}
	s.alarmed = true
	return true
}

// p90 reports the 90th percentile of the window's absolute deviations.
func (s *component) p90() float64 {
	var sm trace.Sample
	sm.AddAll(s.window...)
	return sm.Percentile(90)
}

// taskState is a task's two deviation streams, in the order OnCycle folds
// them in: the border exchange against PredCommMs, then the whole cycle
// against PredCycleMs. streams names them in events, gauges in the
// registry.
type taskState [2]component

var (
	streams = [2]string{"comm", "cycle"}
	gauges  = [2]string{`drift.comm_pct{task="%d"}`, `drift.pct{task="%d"}`}
)

// Monitor is an obs.CycleSink that turns per-cycle measurements into
// drift gauges, counters, and events. All methods are safe on a nil
// receiver (a nil *Monitor stored in an obs.CycleSink interface is a
// usable no-op sink) and safe for concurrent use — live runtimes call
// OnCycle from one goroutine per rank.
type Monitor struct {
	mu    sync.Mutex
	cfg   Config
	reg   *obs.Registry
	rec   *obs.Recorder
	tasks map[int]*taskState
	worst float64
}

// Monitor implements obs.CycleSink.
var _ obs.CycleSink = (*Monitor)(nil)

// New builds a monitor writing gauges/counters to reg and events to rec;
// either may be nil (the corresponding output is dropped). cfg's zero
// fields take the package defaults.
func New(cfg Config, reg *obs.Registry, rec *obs.Recorder) *Monitor {
	return &Monitor{
		cfg:   cfg.withDefaults(),
		reg:   reg,
		rec:   rec,
		tasks: make(map[int]*taskState),
	}
}

// taskLocked returns the task's state, creating it (and a gauge for each
// predicted component) on first sight. Callers hold m.mu.
func (m *Monitor) taskLocked(task int, preds [2]float64) *taskState {
	ts, ok := m.tasks[task]
	if !ok {
		ts = &taskState{}
		for i := range ts {
			ts[i].window = make([]float64, 0, window)
			if predicted(preds[i]) {
				ts[i].gauge = m.reg.Gauge(fmt.Sprintf(gauges[i], task))
			}
		}
		m.tasks[task] = ts
	}
	return ts
}

// OnCycle folds in one task's measured cycle under one lock: its exchange
// time, then its cycle time, each against its prediction. A component
// without a prediction is skipped. No-op on a nil monitor.
func (m *Monitor) OnCycle(task, cycle int, cycleMs, exchangeMs float64) {
	if m == nil {
		return
	}
	preds := [2]float64{m.cfg.PredCommMs, m.cfg.PredCycleMs}
	if !predicted(preds[0]) && !predicted(preds[1]) {
		return
	}
	measured := [2]float64{exchangeMs, cycleMs}
	var fired [2]Event
	nFired := 0
	m.mu.Lock()
	ts := m.taskLocked(task, preds)
	for i := range ts {
		s := &ts[i]
		if !predicted(preds[i]) {
			continue
		}
		dev := trace.DeviationPct(measured[i], preds[i])
		if s.observe(dev, m.cfg.ThresholdPct, m.cfg.Warmup) {
			fired[nFired] = Event{
				Task:       task,
				Cycle:      cycle,
				Component:  streams[i],
				MeasuredMs: measured[i],
				PredMs:     preds[i],
				DevPct:     dev,
				EwmaPct:    s.ewma,
				P90Pct:     s.p90(),
			}
			nFired++
		}
		if a := math.Abs(s.ewma); s.n >= m.cfg.Warmup && a > m.worst {
			m.worst = a
			m.reg.Gauge("drift.worst_pct").Set(a)
		}
	}
	m.mu.Unlock()

	for _, ev := range fired[:nFired] {
		m.reg.Counter("drift.events").Inc()
		if m.cfg.Notify != nil {
			m.cfg.Notify(ev)
		}
		m.rec.Emit("drift", map[string]any{
			"task":        ev.Task,
			"cycle":       ev.Cycle,
			"component":   ev.Component,
			"measured_ms": ev.MeasuredMs,
			"pred_ms":     ev.PredMs,
			"dev_pct":     ev.DevPct,
			"ewma_pct":    ev.EwmaPct,
			"p90_pct":     ev.P90Pct,
		})
	}
}

// predicted reports whether predMs is a prediction to deviate from: 0 and
// non-finite values are not.
func predicted(predMs float64) bool {
	return predMs != 0 && !math.IsInf(predMs, 0) && !math.IsNaN(predMs)
}

// Worst reports the largest |EWMA deviation| seen so far across all tasks
// and components, over the observations past warmup: the ones that may
// fire an event (0 for a nil monitor).
func (m *Monitor) Worst() float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.worst
}
