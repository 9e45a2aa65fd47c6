package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is one structured observation: a kind plus flat key/value fields.
// It marshals as a single flat JSON object — {"seq":1,"type":"candidate",
// ...fields} — so a recorded stream is valid JSONL that generic tooling
// (jq, chrome://tracing converters) can consume without a schema.
type Event struct {
	// Seq is the 1-based emission order within the recorder.
	Seq int64
	// Kind names the event type ("candidate", "search", "span", ...).
	Kind string
	// Fields carries the event payload. Keys "seq" and "type" are reserved
	// for the envelope and overwritten if present.
	Fields map[string]any
}

// MarshalJSON flattens the event into one JSON object.
func (e Event) MarshalJSON() ([]byte, error) {
	flat := make(map[string]any, len(e.Fields)+2)
	for k, v := range e.Fields {
		flat[k] = v
	}
	flat["seq"] = e.Seq
	flat["type"] = e.Kind
	return json.Marshal(flat)
}

// UnmarshalJSON reverses MarshalJSON (used by trace-loading tools and
// tests; seq and type return to the envelope).
func (e *Event) UnmarshalJSON(data []byte) error {
	flat := map[string]any{}
	if err := json.Unmarshal(data, &flat); err != nil {
		return err
	}
	if seq, ok := flat["seq"].(float64); ok {
		e.Seq = int64(seq)
	}
	if kind, ok := flat["type"].(string); ok {
		e.Kind = kind
	}
	delete(flat, "seq")
	delete(flat, "type")
	e.Fields = flat
	return nil
}

// Recorder accumulates structured events, optionally streaming each as one
// JSON line to a writer. All events are also retained in memory so they
// can be re-exported (e.g. as a Chrome trace) after the run. The zero
// value and nil recorders are safe: Emit on them is a no-op.
type Recorder struct {
	mu     sync.Mutex
	w      io.Writer
	events []Event
	seq    int64
	err    error
}

// NewRecorder creates a recorder. w may be nil to record in memory only.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w}
}

// Emit records one event. fields may be nil. The map is retained; callers
// must not mutate it afterwards. No-op on a nil recorder.
func (r *Recorder) Emit(kind string, fields map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev := Event{Seq: r.seq, Kind: kind, Fields: fields}
	r.events = append(r.events, ev)
	if r.w != nil && r.err == nil {
		data, err := json.Marshal(ev)
		if err == nil {
			data = append(data, '\n')
			_, err = r.w.Write(data)
		}
		if err != nil {
			r.err = fmt.Errorf("obs: recording event %d: %w", ev.Seq, err)
		}
	}
}

// Span records one timed interval as an event of kind "span" with the
// fields Chrome trace export expects: name, tid (thread/task id), ts_ms
// (start), dur_ms. extra fields ride along as span arguments.
func (r *Recorder) Span(name string, tid int, startMs, durMs float64, extra map[string]any) {
	if r == nil {
		return
	}
	fields := make(map[string]any, len(extra)+4)
	for k, v := range extra {
		fields[k] = v
	}
	fields["name"] = name
	fields["tid"] = tid
	fields["ts_ms"] = startMs
	fields["dur_ms"] = durMs
	r.Emit("span", fields)
}

// Events returns a copy of every recorded event in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Err reports the first write error, if any. Events keep accumulating in
// memory after a write error; only streaming stops.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
