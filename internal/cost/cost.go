// Package cost implements the topology-specific communication cost
// functions of Section 3.0: per-(cluster, topology) Eq. 1 models
//
//	T_comm[C,τ](b, p) = c1 + c2·p + b·(c3 + c4·p)
//
// per-byte router and coercion penalties, the Eq. 2 max-composition across
// clusters, and the least-squares fitting used to construct the models from
// offline benchmark measurements. All times are in milliseconds and message
// sizes in bytes.
//
//netpart:deterministic
package cost

import (
	"fmt"
	"math"
	"slices"

	"netpart/internal/model"
	"netpart/internal/topo"
)

// Params are the four constants of Eq. 1: latency constants C1 (fixed) and
// C2 (per processor) and bandwidth constants C3 (per byte) and C4 (per byte
// per processor).
type Params struct {
	// C1 is the fixed latency, C2 the added latency per station.
	C1, C2 float64
	// C3 is the per-byte cost, C4 the added per-byte cost per station.
	C3, C4 float64
}

// Eval computes Eq. 1 for a b-byte message among p processors. Following
// Section 6.0, the absolute value is taken: the linear fit may go negative
// for small p, and the paper observes |T| is a very good approximation to
// the actual cost there.
func (c Params) Eval(b float64, p int) float64 {
	v := c.C1 + c.C2*float64(p) + b*(c.C3+c.C4*float64(p))
	return math.Abs(v)
}

// String renders the constants in the paper's form.
func (c Params) String() string {
	return fmt.Sprintf("%.4g + %.4g·p + b·(%.4g + %.4g·p)", c.C1, c.C2, c.C3, c.C4)
}

// PerByte is a cost that is linear in message size, used for the router
// (T_router) and coercion (T_coerce) penalties.
type PerByte struct {
	// Ms is the per-byte cost in milliseconds.
	Ms float64
	// FixedMs is a per-message constant (zero in the paper's fits).
	FixedMs float64
}

// Eval returns the cost of one b-byte message.
func (p PerByte) Eval(b float64) float64 { return p.FixedMs + p.Ms*b }

// Migration extends the Eq. 4–6 cost model with the price of *changing* a
// partition: moving rows_moved PDUs to their new owners costs
//
//	T_mig(rows_moved) = PerMoveMs + PerByteMs · RowBytes · rows_moved
//
// — one fixed protocol round (the gather/broadcast of the decision plus
// per-batch framing, folded into PerMoveMs) and a bandwidth term for the
// payload itself. The incremental repartitioner (internal/repart) charges
// T_mig, amortized over the expected cycles until the next repartition,
// against the per-cycle gain a candidate vector promises; without it the
// planner would chase every transient measurement. The constants come from
// the same Eq. 1 fits as T_comm: PerMoveMs from C1 and PerByteMs from C3.
type Migration struct {
	// PerMoveMs is the fixed cost of one migration round.
	PerMoveMs float64
	// PerByteMs is the wire cost per payload byte moved.
	PerByteMs float64
	// RowBytes is the payload size of one migrated PDU (row).
	RowBytes float64
}

// MigrationFromParams derives T_mig constants from a cluster's Eq. 1 fit:
// the fixed latency C1 prices the migration round, the per-byte constant
// C3 prices the payload. As in Eval, absolute values are taken — the
// Section 6.0 linear fits may go negative (the paper's C3 for both
// clusters does), and a negative T_mig would reward churn.
func MigrationFromParams(p Params, rowBytes float64) Migration {
	return Migration{PerMoveMs: math.Abs(p.C1), PerByteMs: math.Abs(p.C3), RowBytes: rowBytes}
}

// Cost evaluates T_mig for a plan that moves rowsMoved PDUs. A plan that
// moves nothing costs nothing (no migration round happens).
func (m Migration) Cost(rowsMoved int) float64 {
	if rowsMoved <= 0 {
		return 0
	}
	return m.PerMoveMs + m.PerByteMs*m.RowBytes*float64(rowsMoved)
}

// pairKey is an unordered cluster pair.
type pairKey struct{ a, b string }

func makePair(a, b string) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// Chain is the measured STEN-1 stagger of the 1-D chains of one ordered
// cluster sequence: a per-byte line per count sequence, each through its
// own two measurements. A single cluster a at p ranks is the chain (a, p),
// keyed (a, ""), its lines at (p, 0). Two clusters (a, b) hold a's ranks
// first, a line per (p_a, p_b). The order matters: a rank sends to its
// lower neighbour first, so the chain of a's ranks then b's and its mirror
// image cross the router in different turns (6 sparc2 ranks then 6 ipc
// ranks stagger 70.5 ms at 4 800 B, the mirror 47.8). Table.Chain returns
// it; read it, do not write it.
type Chain struct{ rows []chainRow }

// chainRow is a Chain's lines at one p_a, indexed by p_b.
type chainRow struct {
	pa    int
	lines []chainLine
}

// chainLine is one cell of a chainRow, ok when measured.
type chainLine struct {
	stagger PerByte
	ok      bool
}

// Line returns the measured line at (pa, pb), pb = 0 for a single
// cluster, or false when the chain (nil included) has none there: a scan
// of the chain's few p_a rows and one index.
func (c *Chain) Line(pa, pb int) (PerByte, bool) {
	if c != nil {
		for _, r := range c.rows {
			if r.pa == pa && pb >= 0 && pb < len(r.lines) {
				return r.lines[pb].stagger, r.lines[pb].ok
			}
		}
	}
	return PerByte{}, false
}

// Table holds the benchmarked cost models for one network: Eq. 1 constants
// per (cluster, topology), per-byte router and coercion penalties per
// cluster pair, and the measured STEN-1 staggers per cluster sequence of
// one or two clusters. Construct with NewTable and populate via Set*
// (typically from package commbench's fits).
type Table struct {
	comm   map[string]map[string]Params // by cluster, then topology
	router map[pairKey]PerByte
	coerce map[pairKey]PerByte
	chains map[[2]string]*Chain // by (first cluster, second or "")
}

// NewTable returns an empty cost table.
func NewTable() *Table {
	return &Table{
		comm:   make(map[string]map[string]Params),
		router: make(map[pairKey]PerByte),
		coerce: make(map[pairKey]PerByte),
		chains: make(map[[2]string]*Chain),
	}
}

// SetComm records the Eq. 1 constants for a (cluster, topology) pair.
func (t *Table) SetComm(cluster, topology string, p Params) {
	m, ok := t.comm[cluster]
	if !ok {
		m = make(map[string]Params)
		t.comm[cluster] = m
	}
	m[topology] = p
}

// Comm returns the Eq. 1 constants for a (cluster, topology) pair.
func (t *Table) Comm(cluster, topology string) (Params, error) {
	if p, ok := t.comm[cluster][topology]; ok {
		return p, nil
	}
	return Params{}, fmt.Errorf("cost: no model for cluster %q topology %q", cluster, topology)
}

// SetChain records the measured stagger of the 1-D chain of pa ranks on
// cluster a followed by pb on cluster b, replacing any line already there;
// a single cluster at pa is b = "", pb = 0.
func (t *Table) SetChain(a string, pa int, b string, pb int, line PerByte) {
	c, ok := t.chains[[2]string{a, b}]
	if !ok {
		c = &Chain{}
		t.chains[[2]string{a, b}] = c
	}
	i := slices.IndexFunc(c.rows, func(r chainRow) bool { return r.pa == pa })
	if i < 0 {
		i = len(c.rows)
		c.rows = append(c.rows, chainRow{pa: pa})
	}
	r := &c.rows[i]
	if pb >= len(r.lines) {
		r.lines = append(r.lines, make([]chainLine, pb+1-len(r.lines))...)
	}
	r.lines[pb] = chainLine{stagger: line, ok: true}
}

// Chain returns the measured chains of a's ranks followed by b's (b = ""
// for a's own), or nil when the table has none.
func (t *Table) Chain(a, b string) *Chain { return t.chains[[2]string{a, b}] }

// SetRouter records the router penalty between two clusters (order
// irrelevant).
func (t *Table) SetRouter(c1, c2 string, p PerByte) { t.router[makePair(c1, c2)] = p }

// Router returns the router penalty between two clusters, zero if none was
// recorded (e.g. same segment).
func (t *Table) Router(c1, c2 string) PerByte { return t.router[makePair(c1, c2)] }

// SetCoerce records the coercion penalty between two clusters.
func (t *Table) SetCoerce(c1, c2 string, p PerByte) { t.coerce[makePair(c1, c2)] = p }

// Coerce returns the coercion penalty between two clusters, zero if none.
func (t *Table) Coerce(c1, c2 string) PerByte { return t.coerce[makePair(c1, c2)] }

// Config is a processor configuration: the number of processors used in
// each cluster, in a fixed cluster order. It is the object the partitioning
// heuristic searches over.
type Config struct {
	// Clusters lists cluster names in the order tasks are placed
	// (fastest-first for the paper's heuristic).
	Clusters []string
	// Counts[i] is P_i, the processors used in Clusters[i].
	Counts []int
}

// Total returns the total number of processors in the configuration.
func (c Config) Total() int {
	sum := 0
	for _, n := range c.Counts {
		sum += n
	}
	return sum
}

// Active returns the clusters with nonzero counts, preserving order, and
// their counts.
func (c Config) Active() ([]string, []int) {
	var names []string
	var counts []int
	for i, n := range c.Counts {
		if n > 0 {
			names = append(names, c.Clusters[i])
			counts = append(counts, n)
		}
	}
	return names, counts
}

// String renders the configuration as "cluster:count" pairs.
func (c Config) String() string {
	s := ""
	for i, name := range c.Clusters {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", name, c.Counts[i])
	}
	return s
}

// CommCost estimates T_comm for one communication cycle of a b-byte-message
// exchange under the given topology and configuration (Eq. 2 and the
// cross-cluster extension of Section 3.0):
//
//   - Within each active cluster C_i, the cost is Eq. 1 at p = P_i, with
//     one extra station (p+1) when the cluster's tasks communicate across
//     the router (the router contends for the cluster's channel).
//   - Tasks adjacent to a different cluster additionally pay the per-byte
//     router and (if formats differ) coercion penalties.
//   - The synchronous cost is the maximum over clusters for locality-
//     exploiting topologies; bandwidth-limited topologies are charged at
//     the total processor count on every segment.
func (t *Table) CommCost(net *model.Network, tp topo.Topology, b float64, cfg Config) (float64, error) {
	if net == nil {
		return 0, fmt.Errorf("cost: nil network")
	}
	names, counts := cfg.Active()
	if len(names) == 0 {
		return 0, nil
	}
	if len(names) == 1 && counts[0] == 1 {
		return 0, nil // a single task exchanges no messages
	}
	pl, err := topo.Contiguous(names, counts)
	if err != nil {
		return 0, err
	}
	border := topo.BorderTasks(tp, pl)
	total := cfg.Total()
	worst := 0.0
	for i, name := range names {
		params, err := t.Comm(name, tp.Name())
		if err != nil {
			return 0, err
		}
		p := counts[i]
		if tp.BandwidthLimited() {
			// Broadcast-like: offered load scales with the total number of
			// participants regardless of segment locality.
			p = total
		}
		crosses := border[name] > 0
		if crosses {
			p++ // the router is one more station on this segment
		}
		c := params.Eval(b, p)
		if crosses {
			c += t.crossPenalty(net, names, name, b)
		}
		if c > worst {
			worst = c
		}
	}
	return worst, nil
}

// crossPenalty returns the worst-case router+coercion per-message penalty a
// border task of cluster 'from' pays to reach any other active cluster.
func (t *Table) crossPenalty(net *model.Network, active []string, from string, b float64) float64 {
	worst := 0.0
	for _, other := range active {
		if other == from || net.SameSegment(from, other) {
			continue
		}
		p := t.Router(from, other).Eval(b)
		if net.NeedsCoercion(from, other) {
			p += t.Coerce(from, other).Eval(b)
		}
		if p > worst {
			worst = p
		}
	}
	return worst
}
