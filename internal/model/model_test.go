package model

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperTestbedValidates(t *testing.T) {
	n := PaperTestbed()
	if err := n.Validate(); err != nil {
		t.Fatalf("PaperTestbed does not validate: %v", err)
	}
	if got := n.TotalProcs(); got != 12 {
		t.Errorf("TotalProcs = %d, want 12", got)
	}
}

func TestFigure1NetworkValidates(t *testing.T) {
	n := Figure1Network()
	if err := n.Validate(); err != nil {
		t.Fatalf("Figure1Network does not validate: %v", err)
	}
	if len(n.Segments) != 3 || len(n.Clusters) != 3 {
		t.Fatalf("want 3 clusters on 3 segments, got %d/%d", len(n.Clusters), len(n.Segments))
	}
}

func TestValidateRejectsEmptyNetwork(t *testing.T) {
	var n Network
	if err := n.Validate(); !errors.Is(err, ErrNoClusters) {
		t.Errorf("Validate() = %v, want ErrNoClusters", err)
	}
}

func TestValidateRejectsUnequalBandwidth(t *testing.T) {
	n := PaperTestbed()
	n.Segments[1].BytesPerMs = 999
	if err := n.Validate(); !errors.Is(err, ErrUnequalBandwidth) {
		t.Errorf("Validate() = %v, want ErrUnequalBandwidth", err)
	}
}

func TestValidateRejectsSharedSegment(t *testing.T) {
	n := PaperTestbed()
	n.Clusters[1].Segment = n.Clusters[0].Segment
	if err := n.Validate(); !errors.Is(err, ErrSharedSegment) {
		t.Errorf("Validate() = %v, want ErrSharedSegment", err)
	}
}

func TestValidateRejectsUnknownSegment(t *testing.T) {
	n := PaperTestbed()
	n.Clusters[0].Segment = "nonexistent"
	if err := n.Validate(); !errors.Is(err, ErrUnknownSegment) {
		t.Errorf("Validate() = %v, want ErrUnknownSegment", err)
	}
}

func TestValidateRejectsUnroutedSegment(t *testing.T) {
	n := PaperTestbed()
	n.Router.Segments = []string{"ether-1"}
	if err := n.Validate(); !errors.Is(err, ErrUnknownSegment) {
		t.Errorf("Validate() = %v, want ErrUnknownSegment for unrouted segment", err)
	}
}

func TestValidateRejectsDuplicateClusterName(t *testing.T) {
	n := PaperTestbed()
	n.Clusters[1].Name = n.Clusters[0].Name
	n.Clusters[1].Segment = "ether-2" // keep segment rule satisfied
	if err := n.Validate(); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("Validate() = %v, want ErrDuplicateName", err)
	}
}

func TestValidateRejectsBadParameters(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Network)
	}{
		{"zero procs", func(n *Network) { n.Clusters[0].Procs = 0 }},
		{"negative available", func(n *Network) { n.Clusters[0].Available = -1 }},
		{"available exceeds procs", func(n *Network) { n.Clusters[0].Available = 99 }},
		{"zero float op time", func(n *Network) { n.Clusters[0].FloatOpTime = 0 }},
		{"zero int op time", func(n *Network) { n.Clusters[0].IntOpTime = 0 }},
		{"negative msg overhead", func(n *Network) { n.Clusters[0].MsgOverheadMs = -1 }},
		{"negative host per byte", func(n *Network) { n.Clusters[0].HostPerByteMs = -1 }},
		{"zero bandwidth", func(n *Network) { n.Segments[0].BytesPerMs = 0; n.Segments[1].BytesPerMs = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := PaperTestbed()
			tc.mutate(n)
			if err := n.Validate(); !errors.Is(err, ErrBadParameter) {
				t.Errorf("Validate() = %v, want ErrBadParameter", err)
			}
		})
	}
}

// TestValidateRefusesNonFiniteCosts covers every float field of the model:
// NaN and ±Inf are refused everywhere, negatives wherever a cost is read,
// and the error names the field. A zero cost stays legal.
func TestValidateRefusesNonFiniteCosts(t *testing.T) {
	fields := []struct {
		field string
		at    func(*Network) *float64
	}{
		{"BytesPerMs", func(n *Network) *float64 { return &n.Segments[0].BytesPerMs }},
		{"FloatOpTime", func(n *Network) *float64 { return &n.Clusters[0].FloatOpTime }},
		{"IntOpTime", func(n *Network) *float64 { return &n.Clusters[1].IntOpTime }},
		{"MsgOverheadMs", func(n *Network) *float64 { return &n.Clusters[0].MsgOverheadMs }},
		{"HostPerByteMs", func(n *Network) *float64 { return &n.Clusters[1].HostPerByteMs }},
		{"PerByteMs", func(n *Network) *float64 { return &n.Router.PerByteMs }},
		{"PerMessageMs", func(n *Network) *float64 { return &n.Router.PerMessageMs }},
		{"PerByteMs", func(n *Network) *float64 { return &n.Coerce.PerByteMs }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
			n := PaperTestbed()
			n.Metasystem = true // judge the one segment alone, not the equal-bandwidth rule
			*f.at(n) = v
			err := n.Validate()
			if !errors.Is(err, ErrBadParameter) || !strings.Contains(err.Error(), f.field) {
				t.Errorf("%s = %v: Validate() = %v, want ErrBadParameter naming %s", f.field, v, err, f.field)
			}
		}
	}
	n := PaperTestbed()
	n.Clusters[0].MsgOverheadMs, n.Clusters[0].HostPerByteMs = 0, 0
	n.Router.PerByteMs, n.Router.PerMessageMs, n.Coerce.PerByteMs = 0, 0, 0
	if err := n.Validate(); err != nil {
		t.Errorf("zero costs: Validate() = %v, want nil", err)
	}
}

func TestBySpeedOrdersFastestFirst(t *testing.T) {
	n := PaperTestbed()
	order := n.BySpeed(nil, OpFloat)
	if order[0].Name != Sparc2Cluster || order[1].Name != IPCCluster {
		t.Errorf("BySpeed(nil, OpFloat) order = [%s %s], want [sparc2 ipc]", order[0].Name, order[1].Name)
	}
	// Ordering must not mutate the original slice.
	if n.Clusters[0].Name != Sparc2Cluster {
		t.Error("BySpeed mutated Network.Clusters")
	}
}

func TestBySpeedTieBreaksByName(t *testing.T) {
	n := &Network{
		Clusters: []*Cluster{
			{Name: "zeta", Procs: 1, Available: 1, FloatOpTime: 1, IntOpTime: 1, Segment: "s1"},
			{Name: "alpha", Procs: 1, Available: 1, FloatOpTime: 1, IntOpTime: 1, Segment: "s2"},
		},
		Segments: []*Segment{{Name: "s1", BytesPerMs: 1}, {Name: "s2", BytesPerMs: 1}},
		Router:   Router{Segments: []string{"s1", "s2"}},
	}
	order := n.BySpeed(nil, OpFloat)
	if order[0].Name != "alpha" {
		t.Errorf("tie-break order[0] = %q, want alpha", order[0].Name)
	}
}

func TestSameSegmentAndCoercion(t *testing.T) {
	n := Figure1Network()
	if n.SameSegment("sun4", "hp") {
		t.Error("sun4 and hp are on different segments")
	}
	if !n.SameSegment("sun4", "sun4") {
		t.Error("a cluster shares a segment with itself")
	}
	if n.NeedsCoercion("sun4", "hp") {
		t.Error("sun4↔hp are both big-endian; no coercion")
	}
	if !n.NeedsCoercion("sun4", "rs6000") {
		t.Error("sun4↔rs6000 differ in format; coercion required")
	}
	if n.SameSegment("sun4", "nope") || n.NeedsCoercion("nope", "sun4") {
		t.Error("unknown cluster names should report false")
	}
}

func TestLookupHelpers(t *testing.T) {
	n := PaperTestbed()
	if c := n.Cluster(Sparc2Cluster); c == nil || c.Arch != "Sun4 Sparc2" {
		t.Errorf("Cluster(sparc2) = %+v", c)
	}
	if n.Cluster("nope") != nil {
		t.Error("Cluster(nope) should be nil")
	}
}

func TestOpClassAndOpTime(t *testing.T) {
	c := &Cluster{FloatOpTime: 2, IntOpTime: 1}
	if c.OpTime(OpFloat) != 2 || c.OpTime(OpInt) != 1 {
		t.Errorf("OpTime = (%v, %v), want (2, 1)", c.OpTime(OpFloat), c.OpTime(OpInt))
	}
	if OpFloat.String() != "float" || OpInt.String() != "int" {
		t.Errorf("OpClass strings = %q, %q", OpFloat, OpInt)
	}
}

func TestProcIDString(t *testing.T) {
	p := ProcID{Cluster: "sparc2", Index: 3}
	if got := p.String(); got != "sparc2/3" {
		t.Errorf("ProcID.String() = %q, want sparc2/3", got)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, build := range []func() *Network{PaperTestbed, Figure1Network} {
		orig := build()
		var buf bytes.Buffer
		if err := WriteSpec(&buf, orig); err != nil {
			t.Fatalf("WriteSpec: %v", err)
		}
		got, err := ReadSpec(&buf)
		if err != nil {
			t.Fatalf("ReadSpec: %v", err)
		}
		if len(got.Clusters) != len(orig.Clusters) {
			t.Fatalf("round trip lost clusters: %d vs %d", len(got.Clusters), len(orig.Clusters))
		}
		for i := range orig.Clusters {
			a, b := orig.Clusters[i], got.Clusters[i]
			if *a != *b {
				t.Errorf("cluster %d round trip: %+v vs %+v", i, a, b)
			}
		}
		if got.Router.PerByteMs != orig.Router.PerByteMs {
			t.Errorf("router per-byte: %v vs %v", got.Router.PerByteMs, orig.Router.PerByteMs)
		}
		if got.Coerce != orig.Coerce {
			t.Errorf("coerce policy: %+v vs %+v", got.Coerce, orig.Coerce)
		}
	}
}

func TestReadSpecDefaults(t *testing.T) {
	in := `{
	  "clusters": [{"name":"c1","procs":4,"float_op_ms":0.001,"int_op_ms":0.001,"segment":"s1"}],
	  "segments": [{"name":"s1","bytes_per_ms":1250}],
	  "router": {}
	}`
	n, err := ReadSpec(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadSpec: %v", err)
	}
	if n.Clusters[0].Available != 4 {
		t.Errorf("omitted available should default to procs; got %d", n.Clusters[0].Available)
	}
	if n.Clusters[0].Format != FormatBigEndian {
		t.Errorf("omitted format should default to big-endian; got %q", n.Clusters[0].Format)
	}
}

func TestReadSpecRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"garbage":        `not json`,
		"unknown field":  `{"clusters":[],"segments":[],"router":{},"bogus":1}`,
		"no clusters":    `{"clusters":[],"segments":[],"router":{}}`,
		"fails validate": `{"clusters":[{"name":"c","procs":0,"float_op_ms":1,"int_op_ms":1,"segment":"s"}],"segments":[{"name":"s","bytes_per_ms":1}],"router":{}}`,
	}
	for name, in := range cases {
		if _, err := ReadSpec(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadSpec accepted invalid input", name)
		}
	}
}

// Property: any network built from positive parameters with distinct names
// and a router joining all segments validates, and BySpeed returns a
// permutation sorted by op time.
func TestBySpeedSortedProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 || len(times) > 20 {
			return true // skip degenerate/huge inputs
		}
		n := &Network{}
		segs := make([]string, 0, len(times))
		for i, raw := range times {
			opMs := float64(raw%1000+1) / 1000
			name := string(rune('a'+i%26)) + string(rune('0'+i/26))
			seg := "seg-" + name
			n.Clusters = append(n.Clusters, &Cluster{
				Name: name, Procs: 1, Available: 1,
				FloatOpTime: opMs, IntOpTime: opMs, Segment: seg,
			})
			n.Segments = append(n.Segments, &Segment{Name: seg, BytesPerMs: 1250})
			segs = append(segs, seg)
		}
		n.Router.Segments = segs
		if err := n.Validate(); err != nil {
			return false
		}
		order := n.BySpeed(nil, OpFloat)
		if len(order) != len(n.Clusters) {
			return false
		}
		seen := map[string]bool{}
		for i, c := range order {
			if seen[c.Name] {
				return false
			}
			seen[c.Name] = true
			if i > 0 && order[i-1].FloatOpTime > c.FloatOpTime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetasystemTestbedValidates(t *testing.T) {
	n := MetasystemTestbed()
	if err := n.Validate(); err != nil {
		t.Fatalf("MetasystemTestbed does not validate: %v", err)
	}
	if n.TotalProcs() != 20 {
		t.Errorf("TotalProcs = %d, want 20", n.TotalProcs())
	}
	// The multicomputer must order first by speed.
	if order := n.BySpeed(nil, OpFloat); order[0].Name != "paragon" {
		t.Errorf("fastest cluster = %q, want paragon", order[0].Name)
	}
	if !n.NeedsCoercion("paragon", Sparc2Cluster) {
		t.Error("paragon is little-endian; coercion to Sun4s expected")
	}
}

func TestMetasystemFlagRelaxesBandwidth(t *testing.T) {
	n := PaperTestbed()
	n.Segments[1].BytesPerMs = 99999
	if err := n.Validate(); !errors.Is(err, ErrUnequalBandwidth) {
		t.Fatalf("unequal bandwidth accepted without the flag: %v", err)
	}
	n.Metasystem = true
	if err := n.Validate(); err != nil {
		t.Errorf("metasystem flag should relax the check: %v", err)
	}
}

func TestSpecRoundTripMetasystem(t *testing.T) {
	orig := MetasystemTestbed()
	var buf bytes.Buffer
	if err := WriteSpec(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Metasystem {
		t.Error("metasystem flag lost in round trip")
	}
	if got.Cluster("paragon") == nil {
		t.Error("paragon cluster lost")
	}
}

func TestValidateClustersWithoutSegments(t *testing.T) {
	// Fuzz-found: a spec with clusters but no segments must error, not
	// panic (JSON field matching is case insensitive, so "Clusters"
	// decodes into the lowercase-tagged field).
	if _, err := ReadSpec(strings.NewReader(`{"Clusters":[{}]}`)); err == nil {
		t.Error("segmentless cluster accepted")
	}
	n := &Network{Clusters: []*Cluster{{Name: "a", Procs: 1, Available: 1,
		FloatOpTime: 1, IntOpTime: 1, Segment: "s"}}}
	if err := n.Validate(); err == nil {
		t.Error("network without segments accepted")
	}
}
