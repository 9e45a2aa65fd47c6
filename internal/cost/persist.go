package cost

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// tableSpec is the JSON form of a Table: the offline benchmarking step
// writes it once and the runtime partitioner loads it, mirroring the
// paper's split between offline cost-function construction and runtime
// use.
type tableSpec struct {
	Comm        []commSpec    `json:"comm"`
	Router      []pairSpec    `json:"router,omitempty"`
	Coerce      []pairSpec    `json:"coerce,omitempty"`
	Stagger     []staggerSpec `json:"stagger,omitempty"`
	PairStagger []pairSpec    `json:"pair_stagger,omitempty"`
}

// staggerSpec is one cluster's Stagger: Eq. 1 over p ≥ 3 in commSpec's
// constants, and the p = 2 line.
type staggerSpec struct {
	Cluster    string  `json:"cluster"`
	C1         float64 `json:"c1"`
	C2         float64 `json:"c2"`
	C3         float64 `json:"c3"`
	C4         float64 `json:"c4"`
	TwoMs      float64 `json:"two_per_byte_ms"`
	TwoFixedMs float64 `json:"two_fixed_ms"`
}

type commSpec struct {
	Cluster  string  `json:"cluster"`
	Topology string  `json:"topology"`
	C1       float64 `json:"c1"`
	C2       float64 `json:"c2"`
	C3       float64 `json:"c3"`
	C4       float64 `json:"c4"`
}

type pairSpec struct {
	A       string  `json:"a"`
	B       string  `json:"b"`
	Ms      float64 `json:"per_byte_ms"`
	FixedMs float64 `json:"fixed_ms,omitempty"`
}

// WriteTable encodes the table as indented JSON, entries sorted for
// stable output.
func WriteTable(w io.Writer, t *Table) error {
	var s tableSpec
	for cluster, m := range t.comm {
		for topology, p := range m.topo {
			s.Comm = append(s.Comm, commSpec{
				Cluster: cluster, Topology: topology,
				C1: p.C1, C2: p.C2, C3: p.C3, C4: p.C4,
			})
		}
	}
	sort.Slice(s.Comm, func(i, j int) bool {
		if s.Comm[i].Cluster != s.Comm[j].Cluster {
			return s.Comm[i].Cluster < s.Comm[j].Cluster
		}
		return s.Comm[i].Topology < s.Comm[j].Topology
	})
	for cluster, m := range t.comm {
		if st := m.stagger; st != nil {
			s.Stagger = append(s.Stagger, staggerSpec{
				Cluster: cluster, C1: st.Many.C1, C2: st.Many.C2, C3: st.Many.C3, C4: st.Many.C4,
				TwoMs: st.Two.Ms, TwoFixedMs: st.Two.FixedMs,
			})
		}
	}
	sort.Slice(s.Stagger, func(i, j int) bool { return s.Stagger[i].Cluster < s.Stagger[j].Cluster })
	for pair, p := range t.router {
		s.Router = append(s.Router, pairSpec{A: pair.a, B: pair.b, Ms: p.Ms, FixedMs: p.FixedMs})
	}
	for pair, p := range t.coerce {
		s.Coerce = append(s.Coerce, pairSpec{A: pair.a, B: pair.b, Ms: p.Ms, FixedMs: p.FixedMs})
	}
	for pair, p := range t.pairStagger {
		s.PairStagger = append(s.PairStagger, pairSpec{A: pair.a, B: pair.b, Ms: p.Ms, FixedMs: p.FixedMs})
	}
	sortPairs := func(ps []pairSpec) {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].A != ps[j].A {
				return ps[i].A < ps[j].A
			}
			return ps[i].B < ps[j].B
		})
	}
	sortPairs(s.Router)
	sortPairs(s.Coerce)
	sortPairs(s.PairStagger)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadTable decodes a table written by WriteTable.
func ReadTable(r io.Reader) (*Table, error) {
	var s tableSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("cost: decoding table: %w", err)
	}
	t := NewTable()
	for _, c := range s.Comm {
		if c.Cluster == "" || c.Topology == "" {
			return nil, fmt.Errorf("cost: comm entry missing cluster or topology")
		}
		t.SetComm(c.Cluster, c.Topology, Params{C1: c.C1, C2: c.C2, C3: c.C3, C4: c.C4})
	}
	for _, p := range s.Router {
		t.SetRouter(p.A, p.B, PerByte{Ms: p.Ms, FixedMs: p.FixedMs})
	}
	for _, p := range s.Coerce {
		t.SetCoerce(p.A, p.B, PerByte{Ms: p.Ms, FixedMs: p.FixedMs})
	}
	for _, c := range s.Stagger {
		if c.Cluster == "" {
			return nil, fmt.Errorf("cost: stagger entry missing cluster")
		}
		t.SetStagger(c.Cluster, Stagger{
			Two:  PerByte{Ms: c.TwoMs, FixedMs: c.TwoFixedMs},
			Many: Params{C1: c.C1, C2: c.C2, C3: c.C3, C4: c.C4},
		})
	}
	for _, p := range s.PairStagger {
		t.SetPairStagger(p.A, p.B, PerByte{Ms: p.Ms, FixedMs: p.FixedMs})
	}
	return t, nil
}
