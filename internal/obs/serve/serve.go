// Package serve exposes an obs.Registry over HTTP for long-running
// processes: Prometheus text exposition on /metrics, the JSON snapshot on
// /metrics.json, liveness on /healthz, and the runtime profiler on
// /debug/pprof/. Everything is stdlib; Start returns a Server whose Wait
// blocks until SIGINT/SIGTERM (or Close), so a command that finishes its
// workload can stay scrapeable.
//
// Metric names map to the exposition by the registry's label-suffix
// convention (see obs.Export): "stencil.cycle_ms" becomes
// netpart_stencil_cycle_ms, and `drift.pct{task="3"}` becomes one series of
// the netpart_drift_pct family.
package serve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"netpart/internal/obs"
)

// splitLabels separates a registry name into its base name and the label
// body of its optional {k="v"} suffix ("" when unlabeled).
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// promName maps a registry base name onto the Prometheus namespace:
// netpart_ prefix, every non-[a-zA-Z0-9_] rune (the dots) folded to '_'.
func promName(base string) string {
	var b strings.Builder
	b.WriteString("netpart_")
	for _, r := range base {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label block from the series' own labels plus an
// extra pair (the histogram "le"), either of which may be empty.
func promLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// promFloat renders a sample value (Prometheus accepts Go's 'g' forms,
// including +Inf).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// errWriter folds per-line write errors so the exposition loops stay flat.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// family groups an export's series under one Prometheus family name, in
// deterministic order: families sorted, series in export (name-sorted)
// order within each. Regrouping matters because full-name sorting can
// interleave families ("a.b" < "a.b2" < `a.b{...}`), and Prometheus
// requires each family's series to be consecutive.
type family[T any] struct {
	name   string
	series []T
}

type labeled[T any] struct {
	labels string
	v      T
}

func groupFamilies[T any](names []string, vals []T) []family[labeled[T]] {
	idx := map[string]int{}
	var fams []family[labeled[T]]
	for i, name := range names {
		base, labels := splitLabels(name)
		fam := promName(base)
		j, ok := idx[fam]
		if !ok {
			j = len(fams)
			idx[fam] = j
			fams = append(fams, family[labeled[T]]{name: fam})
		}
		fams[j].series = append(fams[j].series, labeled[T]{labels: labels, v: vals[i]})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WriteProm writes the export in the Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, histograms as
// cumulative _bucket series over the shared bounds plus _sum and _count.
// Output is deterministic — families sorted by exposition name, series by
// registry name — so identical registry states scrape byte-identically.
// Never-observed histograms are skipped, as in Registry.Render.
func WriteProm(w io.Writer, ex obs.Export) error {
	e := &errWriter{w: w}

	names := make([]string, len(ex.Counters))
	cvals := make([]int64, len(ex.Counters))
	for i, c := range ex.Counters {
		names[i], cvals[i] = c.Name, c.Value
	}
	for _, fam := range groupFamilies(names, cvals) {
		e.printf("# TYPE %s counter\n", fam.name)
		for _, s := range fam.series {
			e.printf("%s%s %d\n", fam.name, promLabels(s.labels, ""), s.v)
		}
	}

	names = make([]string, len(ex.Gauges))
	gvals := make([]float64, len(ex.Gauges))
	for i, g := range ex.Gauges {
		names[i], gvals[i] = g.Name, g.Value
	}
	for _, fam := range groupFamilies(names, gvals) {
		e.printf("# TYPE %s gauge\n", fam.name)
		for _, s := range fam.series {
			e.printf("%s%s %s\n", fam.name, promLabels(s.labels, ""), promFloat(s.v))
		}
	}

	names = names[:0]
	hvals := make([]obs.HistExport, 0, len(ex.Histograms))
	for _, h := range ex.Histograms {
		if h.Count == 0 {
			continue
		}
		names = append(names, h.Name)
		hvals = append(hvals, h)
	}
	for _, fam := range groupFamilies(names, hvals) {
		e.printf("# TYPE %s histogram\n", fam.name)
		for _, s := range fam.series {
			for i, bound := range s.v.Bounds {
				e.printf("%s_bucket%s %d\n", fam.name,
					promLabels(s.labels, `le="`+promFloat(bound)+`"`), s.v.Cumulative[i])
			}
			e.printf("%s_bucket%s %d\n", fam.name, promLabels(s.labels, `le="+Inf"`), s.v.Count)
			e.printf("%s_sum%s %s\n", fam.name, promLabels(s.labels, ""), promFloat(s.v.Sum))
			e.printf("%s_count%s %d\n", fam.name, promLabels(s.labels, ""), s.v.Count)
		}
	}
	return e.err
}

// Handler builds the telemetry mux for one registry. A nil registry is
// served as permanently empty (every endpoint still answers), so callers
// can wire -serve unconditionally.
func Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Render to a buffer first so a slow scraper never holds
		// instrument locks and errors surface as a 500, not a torn body.
		var buf bytes.Buffer
		if err := WriteProm(&buf, reg.Export()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
	once sync.Once
}

// Start listens on addr (host:port; ":0" picks a free port) and serves the
// registry's telemetry in a background goroutine. The caller owns the
// returned Server and should Close it (or Wait, then Close).
func Start(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: Handler(reg)},
		done: make(chan struct{}),
	}
	go func() {
		// Serve always returns non-nil; after Close it reports
		// http.ErrServerClosed, which is the expected shutdown path.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr reports the bound listen address ("" for a nil or zero Server) —
// the resolved port when Start was given ":0".
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL reports the scrape base URL ("" for a nil or zero Server).
func (s *Server) URL() string {
	if s == nil || s.ln == nil {
		return ""
	}
	addr := s.ln.Addr().String()
	if h, p, err := net.SplitHostPort(addr); err == nil {
		if ip := net.ParseIP(h); ip != nil && ip.IsUnspecified() {
			addr = net.JoinHostPort("127.0.0.1", p)
		}
	}
	return "http://" + addr
}

// Close stops serving and unblocks Wait. Safe to call more than once; a
// nil or zero Server is a no-op.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	var err error
	s.once.Do(func() {
		close(s.done)
		err = s.srv.Close()
	})
	return err
}

// Wait blocks until the process receives SIGINT or SIGTERM, or the server
// is Closed. It returns without closing the server on a signal, so callers
// close in one place:
//
//	srv, _ := serve.Start(addr, reg)
//	defer srv.Close()
//	... run workload ...
//	srv.Wait()
//
// A nil or zero Server returns immediately.
func (s *Server) Wait() {
	if s == nil || s.done == nil {
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-s.done:
	}
}
