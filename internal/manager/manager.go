// Package manager implements the cluster managers of Section 3.0: one
// processor per cluster monitors the load of its peers, applies a threshold
// policy to decide which processors are available, and cooperatively
// exchanges availability with the other cluster managers so that
// partitioning can run against a current global snapshot (the protocol
// referenced as [11] in the paper).
//
// It also implements the paper's "general case": instead of the binary
// available/unavailable decision, instruction speeds can be adjusted to
// reflect current load.
package manager

import (
	"encoding/json"
	"fmt"
	"sync"

	"netpart/internal/mmps"
	"netpart/internal/model"
)

// Policy is the availability threshold policy: a processor whose load is
// at or below Threshold is available, and all available processors are
// treated as equal in computational power (the threshold is small enough
// for that to hold).
type Policy struct {
	// Threshold is the maximum load average of an available processor.
	Threshold float64
}

// DefaultPolicy matches the paper's assumption of a small threshold.
var DefaultPolicy = Policy{Threshold: 0.25}

// Available returns the indices of processors whose load is within the
// threshold.
func (p Policy) Available(loads []float64) []int {
	var idx []int
	for i, l := range loads {
		if l <= p.Threshold {
			idx = append(idx, i)
		}
	}
	return idx
}

// Manager monitors one cluster. It is safe for concurrent use.
type Manager struct {
	cluster *model.Cluster
	policy  Policy

	mu    sync.Mutex
	loads []float64
}

// New creates a manager for the cluster with all processors initially idle.
func New(c *model.Cluster, p Policy) *Manager {
	return &Manager{
		cluster: c,
		policy:  p,
		loads:   make([]float64, c.Procs),
	}
}

// SetLoad records the observed load average of one processor.
func (m *Manager) SetLoad(index int, load float64) error {
	if index < 0 || index >= m.cluster.Procs {
		return fmt.Errorf("manager: processor %d of %d", index, m.cluster.Procs)
	}
	if load < 0 {
		return fmt.Errorf("manager: negative load %v", load)
	}
	m.mu.Lock()
	m.loads[index] = load
	m.mu.Unlock()
	return nil
}

// Refresh applies the threshold policy, updates the cluster's Available
// count, and returns it.
func (m *Manager) Refresh() int {
	m.mu.Lock()
	avail := len(m.policy.Available(m.loads))
	m.mu.Unlock()
	m.cluster.Available = avail
	return avail
}

// AdjustedOpTime implements the general case of Section 3.0: a processor
// carrying load L delivers only 1/(1+L) of its cycles to the task, so its
// effective per-operation time stretches to base·(1+L).
func AdjustedOpTime(base, load float64) float64 {
	if load < 0 {
		load = 0
	}
	return base * (1 + load)
}

// MeanLoad returns the average load of the currently available processors
// (zero when none are available).
func (m *Manager) MeanLoad() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := m.policy.Available(m.loads)
	if len(idx) == 0 {
		return 0
	}
	sum := 0.0
	for _, i := range idx {
		sum += m.loads[i]
	}
	return sum / float64(len(idx))
}

// MeanLoadAll returns the average load across every processor in the
// cluster, the quantity the general case's speed adjustment uses.
func (m *Manager) MeanLoadAll() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.loads) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range m.loads {
		sum += l
	}
	return sum / float64(len(m.loads))
}

// Report is the availability summary one cluster manager shares with the
// others during the cooperative exchange.
type Report struct {
	Cluster   string `json:"cluster"`
	Available int    `json:"available"`
	// MeanLoad averages the available processors (≈ 0 under the threshold
	// policy); MeanLoadAll averages every processor and drives the general
	// case's instruction-speed adjustment.
	MeanLoad    float64 `json:"mean_load"`
	MeanLoadAll float64 `json:"mean_load_all"`
	FloatOpTime float64 `json:"float_op_ms"`
	IntOpTime   float64 `json:"int_op_ms"`
}

// Report builds this manager's current report (refreshing availability).
func (m *Manager) Report() Report {
	avail := m.Refresh()
	return Report{
		Cluster:     m.cluster.Name,
		Available:   avail,
		MeanLoad:    m.MeanLoad(),
		MeanLoadAll: m.MeanLoadAll(),
		FloatOpTime: m.cluster.FloatOpTime,
		IntOpTime:   m.cluster.IntOpTime,
	}
}

// Exchange runs one round of the cooperative availability protocol over an
// mmps transport world in which every rank is a cluster manager: an
// all-gather of JSON-encoded reports. The returned slice is indexed by
// rank (the local report included).
func Exchange(tr mmps.Transport, local Report) ([]Report, error) {
	payload, err := json.Marshal(local)
	if err != nil {
		return nil, fmt.Errorf("manager: encoding report: %w", err)
	}
	parts, err := mmps.AllGather(tr, payload)
	if err != nil {
		return nil, fmt.Errorf("manager: exchanging reports: %w", err)
	}
	reports := make([]Report, len(parts))
	for src, buf := range parts {
		if err := json.Unmarshal(buf, &reports[src]); err != nil {
			return nil, fmt.Errorf("manager: decoding report from %d: %w", src, err)
		}
	}
	return reports, nil
}

// Apply updates the network model's availability from a set of exchanged
// reports. Unknown clusters are ignored.
func Apply(net *model.Network, reports []Report) {
	for _, r := range reports {
		if c := net.Cluster(r.Cluster); c != nil {
			if r.Available >= 0 && r.Available <= c.Procs {
				c.Available = r.Available
			}
		}
	}
}

// AdjustSpeeds applies the general-case load adjustment to the network
// model: each cluster's op times are stretched by its reported mean load.
// It returns a deep copy, leaving the input model untouched.
func AdjustSpeeds(net *model.Network, reports []Report) *model.Network {
	out := &model.Network{
		Segments: net.Segments,
		Router:   net.Router,
		Coerce:   net.Coerce,
	}
	byName := make(map[string]Report, len(reports))
	for _, r := range reports {
		byName[r.Cluster] = r
	}
	for _, c := range net.Clusters {
		cc := *c
		if r, ok := byName[c.Name]; ok {
			cc.FloatOpTime = AdjustedOpTime(c.FloatOpTime, r.MeanLoadAll)
			cc.IntOpTime = AdjustedOpTime(c.IntOpTime, r.MeanLoadAll)
		}
		out.Clusters = append(out.Clusters, &cc)
	}
	return out
}
