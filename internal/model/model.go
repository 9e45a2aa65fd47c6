// Package model defines the heterogeneous network model of Section 3.0 of
// the paper: processors grouped into homogeneous clusters, one cluster per
// private-bandwidth network segment, segments joined pairwise by a single
// router. The model carries exactly the information each cluster manager
// stores — bandwidth, processor counts, and instruction speeds — plus the
// data format needed to decide when cross-cluster messages require coercion.
//
// All times in this package (and throughout the repository) are expressed in
// milliseconds, matching the units of the paper's published cost constants.
//
//netpart:deterministic
package model

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Format identifies a machine data format. Messages between clusters with
// different formats incur a per-byte coercion cost (Section 3.0).
type Format string

// Common data formats. The 1994 testbed was all big-endian Sun hardware;
// the simulator supports mixed formats to exercise the coercion path.
const (
	FormatBigEndian    Format = "big-endian"
	FormatLittleEndian Format = "little-endian"
)

// Cluster is a homogeneous group of processors on one network segment,
// described by the information its cluster manager stores: node counts,
// instruction speeds, and (via the segment) bandwidth.
type Cluster struct {
	// Name identifies the cluster, e.g. "sparc2".
	Name string
	// Arch names the processor type, e.g. "Sun4 Sparc2". Informational.
	Arch string
	// Procs is the total number of processors in the cluster.
	Procs int
	// Available is the number of processors currently below the cluster
	// manager's load threshold. It is maintained by package manager and
	// defaults to Procs.
	Available int
	// FloatOpTime is the average time per floating-point operation in
	// milliseconds (the paper's S_i; 0.3 µs = 3.0e-4 ms for the Sparc2).
	FloatOpTime float64
	// IntOpTime is the average time per integer operation in milliseconds.
	IntOpTime float64
	// Format is the cluster's data format, used to decide coercion.
	Format Format
	// Segment names the network segment the cluster sits on.
	Segment string
	// MsgOverheadMs is the per-message host cost (protocol stack, system
	// call, NIC programming) in milliseconds. Slower processors have larger
	// overheads, which is why the paper's fitted cost functions differ
	// between clusters even though segment bandwidth is equal.
	MsgOverheadMs float64
	// HostPerByteMs is the per-byte host protocol-processing cost in
	// milliseconds per byte (checksumming, copying). It adds to the wire
	// time 1/Segment.BytesPerMs to give the effective per-byte rate the
	// paper's constants capture.
	HostPerByteMs float64
}

// OpTime returns the per-operation time in milliseconds for the given
// operation class.
func (c *Cluster) OpTime(class OpClass) float64 {
	if class == OpInt {
		return c.IntOpTime
	}
	return c.FloatOpTime
}

// OpClass distinguishes the two instruction-speed entries a cluster manager
// stores (integer and floating point).
type OpClass int

// Operation classes.
const (
	OpFloat OpClass = iota
	OpInt
)

// String returns "float" or "int".
func (c OpClass) String() string {
	if c == OpInt {
		return "int"
	}
	return "float"
}

// Segment is a physical network segment with private bandwidth. The paper
// assumes all segments have equal communication bandwidth; Validate enforces
// this.
type Segment struct {
	// Name identifies the segment, e.g. "ether-1".
	Name string
	// BytesPerMs is the raw channel rate in bytes per millisecond.
	// 10 Mb/s ethernet is 1250 bytes/ms. The paper assumes all segments
	// have equal bandwidth; Validate enforces this.
	BytesPerMs float64
}

// Router joins every pair of segments (the paper's third assumption: a
// single router, so every message crosses at most one hop). Router transit
// adds a per-byte delay and contends for the channel like one more station.
type Router struct {
	// Name identifies the router.
	Name string
	// PerByteMs is the internal router delay per byte in milliseconds
	// (the paper fits T_router[C1,C2](b) ≈ 0.0006·b ms).
	PerByteMs float64
	// PerMessageMs is a fixed per-message forwarding cost in milliseconds.
	PerMessageMs float64
	// Segments lists the segments the router joins.
	Segments []string
}

// CoercePerByteMs is the per-byte cost of converting between two data
// formats. The model charges it only when formats differ.
type CoercePolicy struct {
	// PerByteMs is the conversion cost per byte in milliseconds.
	PerByteMs float64
}

// Network is the full heterogeneous network: clusters, segments, and the
// router joining them.
type Network struct {
	Clusters []*Cluster
	Segments []*Segment
	Router   Router
	Coerce   CoercePolicy
	// Metasystem relaxes the paper's equal-segment-bandwidth assumption
	// (the §7 future-work direction of mixing machine classes, e.g. a
	// multicomputer's fast interconnect beside ethernet segments). The
	// per-cluster benchmarked cost functions already capture unequal
	// bandwidth, so only validation changes.
	Metasystem bool
}

// Validation errors.
var (
	ErrNoClusters       = errors.New("model: network has no clusters")
	ErrUnequalBandwidth = errors.New("model: segments have unequal bandwidth")
	ErrSharedSegment    = errors.New("model: segment hosts more than one cluster")
	ErrUnknownSegment   = errors.New("model: cluster references unknown segment")
	ErrDuplicateName    = errors.New("model: duplicate name")
	ErrBadParameter     = errors.New("model: parameter out of range")
)

// Validate checks the model against the paper's three structural
// assumptions: equal segment bandwidth, one cluster per segment, and a
// single router joining every pair of segments. It also checks basic
// parameter sanity: positive counts, speeds and bandwidths, and finite,
// non-negative costs (zero is a legal cost). A NaN would break the
// simulator's event order and an infinity would turn every time into one,
// so both are refused by field name.
func (n *Network) Validate() error {
	if len(n.Clusters) == 0 {
		return ErrNoClusters
	}
	// Every check scans the network's own slices and hashes no name: a
	// network has a handful of clusters, and every decision validates it.
	for i, s := range n.Segments {
		if s.Name == "" {
			return fmt.Errorf("%w: empty segment name", ErrDuplicateName)
		}
		if slices.ContainsFunc(n.Segments[:i], func(p *Segment) bool { return p.Name == s.Name }) {
			return fmt.Errorf("%w: segment %q", ErrDuplicateName, s.Name)
		}
		if !isPositive(s.BytesPerMs) {
			return paramError("segment", s.Name, "BytesPerMs", s.BytesPerMs)
		}
	}
	// Equal-bandwidth assumption (relaxed for metasystems, §7).
	if !n.Metasystem && len(n.Segments) > 1 {
		for _, s := range n.Segments[1:] {
			if s.BytesPerMs != n.Segments[0].BytesPerMs {
				return fmt.Errorf("%w: %q=%v vs %q=%v bytes/ms (set Metasystem to relax)",
					ErrUnequalBandwidth, n.Segments[0].Name, n.Segments[0].BytesPerMs, s.Name, s.BytesPerMs)
			}
		}
	}
	for i, c := range n.Clusters {
		if c.Name == "" {
			return fmt.Errorf("%w: empty cluster name", ErrDuplicateName)
		}
		if slices.ContainsFunc(n.Clusters[:i], func(p *Cluster) bool { return p.Name == c.Name }) {
			return fmt.Errorf("%w: cluster %q", ErrDuplicateName, c.Name)
		}
		if !holds(n.Segments, i, func(s *Segment) bool { return s.Name == c.Segment }) {
			return fmt.Errorf("%w: cluster %q on segment %q", ErrUnknownSegment, c.Name, c.Segment)
		}
		if j := slices.IndexFunc(n.Clusters[:i], func(p *Cluster) bool { return p.Segment == c.Segment }); j >= 0 {
			return fmt.Errorf("%w: segment %q hosts %q and %q", ErrSharedSegment, c.Segment, n.Clusters[j].Name, c.Name)
		}
		if c.Procs <= 0 {
			return fmt.Errorf("%w: cluster %q has %d processors", ErrBadParameter, c.Name, c.Procs)
		}
		if c.Available < 0 || c.Available > c.Procs {
			return fmt.Errorf("%w: cluster %q available=%d of %d", ErrBadParameter, c.Name, c.Available, c.Procs)
		}
		switch {
		case !isPositive(c.FloatOpTime):
			return paramError("cluster", c.Name, "FloatOpTime", c.FloatOpTime)
		case !isPositive(c.IntOpTime):
			return paramError("cluster", c.Name, "IntOpTime", c.IntOpTime)
		case !isCost(c.MsgOverheadMs):
			return paramError("cluster", c.Name, "MsgOverheadMs", c.MsgOverheadMs)
		case !isCost(c.HostPerByteMs):
			return paramError("cluster", c.Name, "HostPerByteMs", c.HostPerByteMs)
		}
	}
	switch {
	case !isCost(n.Router.PerByteMs):
		return paramError("router", n.Router.Name, "PerByteMs", n.Router.PerByteMs)
	case !isCost(n.Router.PerMessageMs):
		return paramError("router", n.Router.Name, "PerMessageMs", n.Router.PerMessageMs)
	case !isCost(n.Coerce.PerByteMs):
		return paramError("coercion", "", "PerByteMs", n.Coerce.PerByteMs)
	}
	if len(n.Segments) > 1 {
		for i, r := range n.Router.Segments {
			if !holds(n.Segments, i, func(s *Segment) bool { return s.Name == r }) {
				return fmt.Errorf("%w: router joins unknown segment %q", ErrUnknownSegment, r)
			}
		}
		for i, s := range n.Segments {
			if !holds(n.Router.Segments, i, func(r string) bool { return r == s.Name }) {
				return fmt.Errorf("%w: segment %q not joined by router", ErrUnknownSegment, s.Name)
			}
		}
	}
	return nil
}

// holds reports whether an element of list satisfies is, trying list[at]
// first: where the i-th cluster and the i-th router entry name the i-th
// segment, the usual layout, a lookup is one compare.
func holds[T any](list []T, at int, is func(T) bool) bool {
	return at < len(list) && is(list[at]) || slices.ContainsFunc(list, is)
}

// Cluster returns the named cluster, or nil if absent.
func (n *Network) Cluster(name string) *Cluster {
	for _, c := range n.Clusters {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// SameSegment reports whether two clusters share a segment (and therefore
// communicate without crossing the router).
func (n *Network) SameSegment(a, b string) bool {
	ca, cb := n.Cluster(a), n.Cluster(b)
	return ca != nil && cb != nil && ca.Segment == cb.Segment
}

// NeedsCoercion reports whether messages between the two clusters require
// data-format conversion.
func (n *Network) NeedsCoercion(a, b string) bool {
	ca, cb := n.Cluster(a), n.Cluster(b)
	return ca != nil && cb != nil && ca.Format != cb.Format
}

// TotalProcs reports the total number of processors in the network.
func (n *Network) TotalProcs() int {
	sum := 0
	for _, c := range n.Clusters {
		sum += c.Procs
	}
	return sum
}

// isCost reports whether v is a finite, non-negative cost, and isPositive
// whether it is finite and above zero (a speed or a bandwidth). Both refuse
// NaN, whose comparisons are all false.
func isCost(v float64) bool     { return v >= 0 && v <= math.MaxFloat64 }
func isPositive(v float64) bool { return v > 0 && v <= math.MaxFloat64 }

// paramError names the refused field and its owner.
func paramError(owner, name, field string, v float64) error {
	if name != "" {
		owner = fmt.Sprintf("%s %q", owner, name)
	}
	return fmt.Errorf("%w: %s %s = %v", ErrBadParameter, owner, field, v)
}

// BySpeed returns the clusters ordered fastest-first by the instruction
// rate for the given operation class (the ordering the partitioning
// heuristic of Section 5.0 uses), written over dst's storage when it has
// room (dst may be nil). Ties break by name for determinism.
func (n *Network) BySpeed(dst []*Cluster, class OpClass) []*Cluster {
	out := append(dst[:0], n.Clusters...)
	// A stable insertion sort, written out: a network has a handful of
	// clusters, and names are compared only on a tie.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j] // smaller op time = faster
			if c := cmp.Compare(a.OpTime(class), b.OpTime(class)); c < 0 || c == 0 && a.Name <= b.Name {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}

// ProcID names one processor: a cluster and an index within it.
type ProcID struct {
	Cluster string
	Index   int
}

// String returns "cluster/index".
func (p ProcID) String() string { return fmt.Sprintf("%s/%d", p.Cluster, p.Index) }
