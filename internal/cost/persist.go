package cost

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// tableSpec is the JSON form of a Table: the offline benchmarking step
// writes it once and the runtime partitioner loads it, mirroring the
// paper's split between offline cost-function construction and runtime
// use.
type tableSpec struct {
	Comm   []commSpec  `json:"comm"`
	Router []pairSpec  `json:"router,omitempty"`
	Coerce []pairSpec  `json:"coerce,omitempty"`
	Chain  []chainSpec `json:"chain_stagger,omitempty"`
}

// maxChainRanks bounds a chain entry's counts in a file read: a line is
// held in a row indexed by its second count.
const maxChainRanks = 1 << 10

// chainSpec is one line of the chain table: PA ranks on cluster A followed
// by PB on B, or PA on A alone when B is empty.
type chainSpec struct {
	A       string  `json:"a"`
	PA      int     `json:"pa"`
	B       string  `json:"b,omitempty"`
	PB      int     `json:"pb,omitempty"`
	Ms      float64 `json:"per_byte_ms"`
	FixedMs float64 `json:"fixed_ms,omitempty"`
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
		for topology, p := range m {
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
	for pair, p := range t.router {
		s.Router = append(s.Router, pairSpec{A: pair.a, B: pair.b, Ms: p.Ms, FixedMs: p.FixedMs})
	}
	for pair, p := range t.coerce {
		s.Coerce = append(s.Coerce, pairSpec{A: pair.a, B: pair.b, Ms: p.Ms, FixedMs: p.FixedMs})
	}
	for k, c := range t.chains {
		for _, r := range c.rows {
			for pb, l := range r.lines {
				if l.ok {
					s.Chain = append(s.Chain, chainSpec{A: k[0], PA: r.pa, B: k[1], PB: pb, Ms: l.stagger.Ms, FixedMs: l.stagger.FixedMs})
				}
			}
		}
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
	slices.SortFunc(s.Chain, func(a, b chainSpec) int {
		return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B), cmp.Compare(a.PA, b.PA), cmp.Compare(a.PB, b.PB))
	})
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
	for _, c := range s.Chain {
		one := c.B == "" // a single cluster: PA ranks, at least two, and no PB
		if c.A == "" || c.A == c.B || c.PA < 1 || c.PA > maxChainRanks ||
			(one && (c.PA < 2 || c.PB != 0)) || (!one && (c.PB < 1 || c.PB > maxChainRanks)) {
			return nil, fmt.Errorf("cost: chain_stagger entry %+v needs one cluster at 2 … %[2]d ranks, or two at 1 … %[2]d each", c, maxChainRanks)
		}
		t.SetChain(c.A, c.PA, c.B, c.PB, PerByte{Ms: c.Ms, FixedMs: c.FixedMs})
	}
	return t, nil
}
