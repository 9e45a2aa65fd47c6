package model

import (
	"encoding/json"
	"fmt"
	"io"
)

// spec mirrors Network for JSON encoding. It exists so that the wire format
// is explicit and stable. Each spec type has its model type's fields in the
// same order, so the two convert into each other: a field added to one and
// not the other stops the conversions below from compiling.
type spec struct {
	Clusters   []clusterSpec `json:"clusters"`
	Segments   []segmentSpec `json:"segments"`
	Router     routerSpec    `json:"router"`
	Coerce     coerceSpec    `json:"coerce,omitempty"`
	Metasystem bool          `json:"metasystem,omitempty"`
}

type clusterSpec struct {
	Name          string  `json:"name"`
	Arch          string  `json:"arch,omitempty"`
	Procs         int     `json:"procs"`
	Available     int     `json:"available,omitempty"`
	FloatOpTime   float64 `json:"float_op_ms"`
	IntOpTime     float64 `json:"int_op_ms"`
	Format        Format  `json:"format,omitempty"`
	Segment       string  `json:"segment"`
	MsgOverheadMs float64 `json:"msg_overhead_ms,omitempty"`
	HostPerByteMs float64 `json:"host_per_byte_ms,omitempty"`
}

type segmentSpec struct {
	Name       string  `json:"name"`
	BytesPerMs float64 `json:"bytes_per_ms"`
}

type routerSpec struct {
	Name         string   `json:"name,omitempty"`
	PerByteMs    float64  `json:"per_byte_ms,omitempty"`
	PerMessageMs float64  `json:"per_message_ms,omitempty"`
	Segments     []string `json:"segments,omitempty"`
}

type coerceSpec struct {
	PerByteMs float64 `json:"per_byte_ms,omitempty"`
}

// WriteSpec encodes the network as indented JSON.
func WriteSpec(w io.Writer, n *Network) error {
	s := spec{Router: routerSpec(n.Router), Coerce: coerceSpec(n.Coerce), Metasystem: n.Metasystem}
	for _, c := range n.Clusters {
		s.Clusters = append(s.Clusters, clusterSpec(*c))
	}
	for _, seg := range n.Segments {
		s.Segments = append(s.Segments, segmentSpec(*seg))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSpec decodes a network from JSON and validates it. Clusters with a
// zero (omitted) "available" count default to fully available.
func ReadSpec(r io.Reader) (*Network, error) {
	var s spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("model: decoding network spec: %w", err)
	}
	n := &Network{Router: Router(s.Router), Coerce: CoercePolicy(s.Coerce), Metasystem: s.Metasystem}
	for _, c := range s.Clusters {
		if c.Available == 0 {
			c.Available = c.Procs
		}
		if c.Format == "" {
			c.Format = FormatBigEndian
		}
		n.Clusters = append(n.Clusters, (*Cluster)(&c))
	}
	for _, seg := range s.Segments {
		n.Segments = append(n.Segments, (*Segment)(&seg))
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
