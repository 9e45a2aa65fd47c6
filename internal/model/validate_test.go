package model

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// oracleValidate is the map-based Network.Validate that the scanning one
// replaced, kept verbatim as a test-only oracle: every network must get
// the same sentinel and the same message from both.
func oracleValidate(n *Network) error {
	if len(n.Clusters) == 0 {
		return ErrNoClusters
	}
	segByName := make(map[string]*Segment, len(n.Segments))
	for _, s := range n.Segments {
		if s.Name == "" {
			return fmt.Errorf("%w: empty segment name", ErrDuplicateName)
		}
		if _, dup := segByName[s.Name]; dup {
			return fmt.Errorf("%w: segment %q", ErrDuplicateName, s.Name)
		}
		if !isPositive(s.BytesPerMs) {
			return paramError("segment", s.Name, "BytesPerMs", s.BytesPerMs)
		}
		segByName[s.Name] = s
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
	seenCluster := make(map[string]bool, len(n.Clusters))
	segUsed := make(map[string]string, len(n.Segments))
	for _, c := range n.Clusters {
		if c.Name == "" {
			return fmt.Errorf("%w: empty cluster name", ErrDuplicateName)
		}
		if seenCluster[c.Name] {
			return fmt.Errorf("%w: cluster %q", ErrDuplicateName, c.Name)
		}
		seenCluster[c.Name] = true
		if _, ok := segByName[c.Segment]; !ok {
			return fmt.Errorf("%w: cluster %q on segment %q", ErrUnknownSegment, c.Name, c.Segment)
		}
		if prev, used := segUsed[c.Segment]; used {
			return fmt.Errorf("%w: segment %q hosts %q and %q", ErrSharedSegment, c.Segment, prev, c.Name)
		}
		segUsed[c.Segment] = c.Name
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
		joined := make(map[string]bool, len(n.Router.Segments))
		for _, s := range n.Router.Segments {
			if _, ok := segByName[s]; !ok {
				return fmt.Errorf("%w: router joins unknown segment %q", ErrUnknownSegment, s)
			}
			joined[s] = true
		}
		for _, s := range n.Segments {
			if !joined[s.Name] {
				return fmt.Errorf("%w: segment %q not joined by router", ErrUnknownSegment, s.Name)
			}
		}
	}
	return nil
}

// validateSentinels are the errors Validate wraps.
var validateSentinels = []error{ErrNoClusters, ErrUnequalBandwidth, ErrSharedSegment, ErrUnknownSegment, ErrDuplicateName, ErrBadParameter}

// sameVerdict fails t unless Validate and the oracle agree on n.
func sameVerdict(t *testing.T, name string, n *Network) {
	t.Helper()
	got, want := n.Validate(), oracleValidate(n)
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: Validate = %v, oracle = %v", name, got, want)
	}
	for _, s := range validateSentinels {
		if errors.Is(got, s) != errors.Is(want, s) {
			t.Fatalf("%s: Validate = %v, oracle = %v: disagree on %v", name, got, want, s)
		}
	}
}

// generatedNetwork is k clusters on k segments, named like the benchmark's
// generated networks ("g0-c3" on "g0-seg3").
func generatedNetwork(k int) *Network {
	n := &Network{Router: Router{Name: "router", PerByteMs: 0.0006}, Coerce: CoercePolicy{PerByteMs: 0.0004}}
	for i := 0; i < k; i++ {
		seg := fmt.Sprintf("g0-seg%d", i)
		n.Clusters = append(n.Clusters, &Cluster{
			Name: fmt.Sprintf("g0-c%d", i), Procs: 4, Available: 4,
			FloatOpTime: 0.0003, IntOpTime: 0.0002, Format: FormatBigEndian, Segment: seg,
			MsgOverheadMs: 0.5, HostPerByteMs: 0.0006,
		})
		n.Segments = append(n.Segments, &Segment{Name: seg, BytesPerMs: 1250})
		n.Router.Segments = append(n.Router.Segments, seg)
	}
	return n
}

// testbeds are the networks the table and the fuzz target start from.
var testbeds = []func() *Network{PaperTestbed, MetasystemTestbed, Figure1Network, func() *Network { return generatedNetwork(5) }}

// TestValidateMatchesOracle runs one malformed network per error path,
// then pairs of coexisting defects, so that which error wins is pinned.
func TestValidateMatchesOracle(t *testing.T) {
	type defect struct {
		name string
		mut  func(n *Network)
	}
	defects := []defect{
		{"no clusters", func(n *Network) { n.Clusters = nil }},
		{"empty segment name", func(n *Network) { n.Segments[1].Name = "" }},
		{"duplicate segment", func(n *Network) { n.Segments[2].Name = n.Segments[0].Name }},
		{"segment listed twice", func(n *Network) { n.Segments = append(n.Segments, n.Segments[0]) }},
		{"zero bandwidth", func(n *Network) { n.Segments[0].BytesPerMs = 0 }},
		{"NaN bandwidth", func(n *Network) { n.Segments[1].BytesPerMs = math.NaN() }},
		{"unequal bandwidth", func(n *Network) { n.Segments[2].BytesPerMs = 2500 }},
		{"empty cluster name", func(n *Network) { n.Clusters[1].Name = "" }},
		{"duplicate cluster", func(n *Network) { n.Clusters[2].Name = n.Clusters[0].Name }},
		{"cluster listed twice", func(n *Network) { n.Clusters = append(n.Clusters, n.Clusters[1]) }},
		{"unknown segment", func(n *Network) { n.Clusters[1].Segment = "nowhere" }},
		{"no segment", func(n *Network) { n.Clusters[0].Segment = "" }},
		{"shared segment", func(n *Network) { n.Clusters[2].Segment = n.Clusters[0].Segment }},
		{"no processors", func(n *Network) { n.Clusters[1].Procs = 0 }},
		{"available above procs", func(n *Network) { n.Clusters[0].Available = n.Clusters[0].Procs + 1 }},
		{"negative available", func(n *Network) { n.Clusters[2].Available = -1 }},
		{"zero float op time", func(n *Network) { n.Clusters[0].FloatOpTime = 0 }},
		{"infinite int op time", func(n *Network) { n.Clusters[1].IntOpTime = math.Inf(1) }},
		{"negative overhead", func(n *Network) { n.Clusters[2].MsgOverheadMs = -1 }},
		{"NaN host cost", func(n *Network) { n.Clusters[0].HostPerByteMs = math.NaN() }},
		{"negative router cost", func(n *Network) { n.Router.PerByteMs = -1 }},
		{"NaN router message cost", func(n *Network) { n.Router.PerMessageMs = math.NaN() }},
		{"infinite coercion", func(n *Network) { n.Coerce.PerByteMs = math.Inf(1) }},
		{"router joins unknown segment", func(n *Network) { n.Router.Segments = append(n.Router.Segments, "nowhere") }},
		{"unrouted segment", func(n *Network) { n.Router.Segments = n.Router.Segments[1:] }},
		{"router lists a segment twice", func(n *Network) { n.Router.Segments[0] = n.Router.Segments[1] }},
		{"no router", func(n *Network) { n.Router.Segments = nil }},
		{"reversed router", func(n *Network) {
			r := n.Router.Segments
			for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
				r[i], r[j] = r[j], r[i]
			}
		}},
		{"one segment", func(n *Network) { n.Segments, n.Router.Segments = n.Segments[:1], nil }},
	}
	// Every testbed here has at least three clusters on three segments.
	three := []func() *Network{MetasystemTestbed, Figure1Network, func() *Network { return generatedNetwork(5) }}
	for _, mk := range three {
		sameVerdict(t, "clean", mk())
		for _, d := range defects {
			n := mk()
			d.mut(n)
			sameVerdict(t, d.name, n)
		}
		for _, a := range defects {
			for _, b := range defects {
				if n := mk(); a.name != b.name && both(n, a.mut, b.mut) {
					sameVerdict(t, a.name+" + "+b.name, n)
				}
			}
		}
	}
}

// both applies two defects in order, reporting false when the second
// indexes what the first removed.
func both(n *Network, a, b func(*Network)) (ok bool) {
	defer func() { ok = recover() == nil }()
	a(n)
	b(n)
	return true
}

// FuzzValidate applies byte-coded mutations — names, segments, router
// lists, counts and costs — to a testbed and checks Validate against the
// oracle.
func FuzzValidate(f *testing.F) {
	for i := range testbeds {
		f.Add(uint8(i), []byte{})
		f.Add(uint8(i), []byte{0, 1, 0})
		f.Add(uint8(i), []byte{4, 2, 1, 9, 0, 2})
	}
	f.Fuzz(func(t *testing.T, bed uint8, ops []byte) {
		n := testbeds[int(bed)%len(testbeds)]()
		for len(ops) >= 3 {
			op, a, b := ops[0], int(ops[1]), int(ops[2])
			ops = ops[3:]
			mutate(n, op, a, b)
		}
		sameVerdict(t, "fuzzed", n)
	})
}

// mutate applies mutation op to n, with a and b choosing what it touches.
func mutate(n *Network, op byte, a, b int) {
	cl, sg, rt := len(n.Clusters), len(n.Segments), len(n.Router.Segments)
	names := []string{"", "x", "g0-c1", "sun4", "seg-1", "ether-1"}
	switch op % 16 {
	case 0:
		if cl > 0 {
			n.Clusters[a%cl].Name = names[b%len(names)]
		}
	case 1:
		if cl > 0 && sg > 0 {
			n.Clusters[a%cl].Segment = n.Segments[b%sg].Name
		}
	case 2:
		if cl > 0 {
			n.Clusters[a%cl].Segment = names[b%len(names)]
		}
	case 3:
		if sg > 0 {
			n.Segments[a%sg].Name = names[b%len(names)]
		}
	case 4:
		if sg > 1 {
			n.Segments[a%sg].Name = n.Segments[b%sg].Name
		}
	case 5:
		if rt > 0 {
			n.Router.Segments = append(n.Router.Segments[:a%rt:a%rt], n.Router.Segments[a%rt+1:]...)
		}
	case 6:
		if sg > 0 {
			n.Router.Segments = append(n.Router.Segments, n.Segments[b%sg].Name)
		}
	case 7:
		n.Router.Segments = append(n.Router.Segments, names[b%len(names)])
	case 8:
		if cl > 0 {
			n.Clusters[a%cl].Procs = b%4 - 1
		}
	case 9:
		if cl > 0 {
			n.Clusters[a%cl].Available = b%8 - 1
		}
	case 10:
		if sg > 0 {
			n.Segments[a%sg].BytesPerMs = float64(b%3) * 1250
		}
	case 11:
		if cl > 0 {
			n.Clusters[a%cl].FloatOpTime = []float64{0, math.NaN(), math.Inf(1), 0.001}[b%4]
		}
	case 12:
		n.Metasystem = !n.Metasystem
	case 13:
		if sg > 0 {
			n.Segments = append(n.Segments[:a%sg:a%sg], n.Segments[a%sg+1:]...)
		}
	case 14:
		if cl > 0 {
			n.Clusters = append(n.Clusters[:a%cl:a%cl], n.Clusters[a%cl+1:]...)
		}
	case 15:
		if cl > 0 {
			n.Clusters = append(n.Clusters, n.Clusters[a%cl]) // the same cluster twice
		}
	}
}

// BenchmarkValidate is Validate on a five-cluster network, the largest in
// the tree, and on 64 clusters, where every pairwise scan is long.
func BenchmarkValidate(b *testing.B) {
	for _, k := range []int{5, 64} {
		n := generatedNetwork(k)
		for _, v := range []struct {
			name string
			f    func(*Network) error
		}{{"scan", (*Network).Validate}, {"maps", oracleValidate}} {
			b.Run(fmt.Sprintf("K=%d/%s", k, v.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := v.f(n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
