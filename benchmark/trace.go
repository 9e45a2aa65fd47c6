package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"netpart/internal/mmps"
)

// Spans are recorded from this package only, around calls into a layer's
// public functions; nothing inside the program under test knows it is being
// traced. A tracer is a preallocated array that one goroutine appends to;
// when it fills up further spans are counted as dropped, never grown, so
// tracing costs two clock reads and one store per span.

type spanKind uint8

const (
	spDecision spanKind = iota // one whole decision: estimator + search + check
	spNewEstimator
	spPartition
	spCheck
	spPass // one simulated-evaluation pass
	spTable2
	spFig3
	spUnit // one simulated unit: decompose + run
	spDecompose
	spRunSim
	spRunLive // one live run
	spSend
	spRecv
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"decision", "core.NewEstimator", "core.Partition", "check",
	"pass", "experiments.Table2", "experiments.Fig3", "unit", "core.Decompose", "stencil.RunSim",
	"stencil.RunLive", "mmps.Send", "mmps.Recv",
}

// span is one timed interval. op identifies the operation it belongs to
// (one decision, one simulated unit, one live run); parent is the index of
// the enclosing span in the same tracer, or -1.
type span struct {
	start, end int64 // ns since the tracer's epoch
	op         int32
	parent     int32
	kind       spanKind
}

type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer(capacity int, epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, or -1 when the tracer is nil
// or full.
func (t *tracer) begin(kind spanKind, op, parent int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), op: op, parent: parent, kind: kind})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(idx int32) {
	if idx >= 0 {
		t.spans[idx].end = int64(time.Since(t.epoch))
	}
}

func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.dropped = 0
}

// total returns the summed duration in seconds of the spans of one kind
// among spans[from:to].
func (t *tracer) total(kind spanKind, from, to int) float64 {
	var ns int64
	for _, s := range t.spans[from:to] {
		if s.kind == kind {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// durations returns each span of one kind's duration in seconds.
func (t *tracer) durations(kind spanKind) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.kind == kind {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

// timedTransport is the timing decorator around mmps.Transport the traced
// live runs go through: every Send and Recv becomes a span in the rank's
// own tracer. It forwards Recycle so the transports' buffer reuse is what
// it is without the decorator.
type timedTransport struct {
	inner mmps.Transport
	tr    *tracer
	op    int32
	msgs  int64
	bytes int64
}

func (t *timedTransport) Rank() int { return t.inner.Rank() }
func (t *timedTransport) Size() int { return t.inner.Size() }

func (t *timedTransport) Send(dst int, data []byte) error {
	idx := t.tr.begin(spSend, t.op, -1)
	err := t.inner.Send(dst, data)
	t.tr.end(idx)
	t.msgs++
	t.bytes += int64(len(data))
	return err
}

func (t *timedTransport) Recv(src int) ([]byte, error) {
	idx := t.tr.begin(spRecv, t.op, -1)
	buf, err := t.inner.Recv(src)
	t.tr.end(idx)
	return buf, err
}

func (t *timedTransport) RecvAny(d time.Duration) (int, []byte, error) {
	idx := t.tr.begin(spRecv, t.op, -1)
	src, buf, err := t.inner.RecvAny(d)
	t.tr.end(idx)
	return src, buf, err
}

func (t *timedTransport) Recycle(buf []byte) { mmps.Recycle(t.inner, buf) }

// Close leaves the wrapped endpoint open: the world outlives the decorator
// and is closed by whoever built it.
func (t *timedTransport) Close() error { return nil }

// writeChromeTrace writes tracers as one Chrome trace (ph "X", µs), one
// thread per tracer, at most maxPerTracer spans of each.
func writeChromeTrace(path string, tracers []*tracer, maxPerTracer int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	first := true
	for tid, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			if i >= maxPerTracer {
				break
			}
			if !first {
				fmt.Fprint(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"span":%d,"parent":%d}}`,
				spanNames[s.kind], tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, i, s.parent)
		}
	}
	fmt.Fprint(w, "]\n")
	return w.Flush()
}
