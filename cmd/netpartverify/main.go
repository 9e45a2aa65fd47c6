// netpartverify is the protocol model checker: it extracts the per-rank
// communication state machine from every //netpart:lockstep function in
// the module (or builds the builtin model a model=<name> directive
// requests), instantiates it at each concrete world size P, and
// exhaustively explores every interleaving under both rendezvous and
// bounded-buffer message semantics. Checked properties: deadlock freedom,
// message conservation (no unconsumed sends), wire-group agreement on
// every channel, termination, and buffer-bound sufficiency (the reported
// max in-flight occupancy is the capacity a backpressuring transport
// needs). Counterexamples are minimal concrete schedules, validated by
// replaying them through the simnet discrete-event simulator (see
// DESIGN.md §11). A function whose directive declares sem=buffered (it
// relies on the transport queueing sends, as the paper's halo exchange
// does) is checked under buffered semantics only; its rendezvous rows read
// "skip (declared buffered)", never "ok".
//
// Usage:
//
//	netpartverify [-p 5] [-sem both] [-cap 1] [-json] [-trace-dir d] [-v] [patterns ...]
//
// Patterns are go-tool style; the default is "./..." from the enclosing
// module root. -p sets the largest world size (every P in 2..p is
// checked). -sem selects rendezvous, buffered, or both. -cap is the
// per-channel capacity under buffered semantics. With -json one NDJSON
// record is emitted per (system, semantics) check; with -trace-dir every
// violation's full counterexample (schedule plus simnet replay report) is
// written as a JSON trace file for artifact upload. Exit status is 1 when
// any protocol is unextractable or any check finds a violation, 2 on
// usage or load errors (an unknown sem= value in a directive is one).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"netpart/internal/analysis"
	"netpart/internal/analysis/protomc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// record is the NDJSON / trace-file form of one check: the checker's
// Result plus the shared-parameter assignment, wall time, and (on
// violation) the simnet replay report.
type record struct {
	*protomc.Result
	Assign    string                `json:"assign,omitempty"`
	Fn        string                `json:"fn,omitempty"`
	ElapsedMs float64               `json:"elapsed_ms"`
	Replay    *protomc.ReplayReport `json:"replay,omitempty"`
	ReplayErr string                `json:"replay_error,omitempty"`
}

func run(args []string, stdout io.Writer) int {
	v, patterns, ok := parseArgs(args, stdout)
	if !ok {
		return 2
	}
	pkgs, ip, err := analysis.LoadModule(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netpartverify:", err)
		return 2
	}
	return v.verify(pkgs, ip)
}

// parseArgs turns the command line into a configured verifier and the
// package patterns to load; ok is false after a usage error was reported.
func parseArgs(args []string, stdout io.Writer) (v *verifier, patterns []string, ok bool) {
	v = &verifier{stdout: stdout}
	fs := flag.NewFlagSet("netpartverify", flag.ExitOnError)
	fs.IntVar(&v.maxP, "p", 5, "largest world size; every P in 2..p is checked")
	sem := fs.String("sem", "both", "message semantics: rendezvous, buffered, or both")
	fs.IntVar(&v.capacity, "cap", 1, "per-channel buffer capacity under buffered semantics")
	fs.BoolVar(&v.asJSON, "json", false, "emit one NDJSON record per check")
	fs.StringVar(&v.traceDir, "trace-dir", "", "write violation counterexample traces into this directory")
	fs.BoolVar(&v.verbose, "v", false, "report every system checked, not per-protocol summaries")
	fs.IntVar(&v.maxStates, "max-states", 0, "state-count cap per check (0: checker default)")
	if err := fs.Parse(args); err != nil {
		return nil, nil, false
	}
	v.sems = map[string][]protomc.Semantics{
		"both":       {protomc.Rendezvous, protomc.Buffered},
		"rendezvous": {protomc.Rendezvous},
		"buffered":   {protomc.Buffered},
	}[*sem]
	if v.sems == nil {
		fmt.Fprintf(os.Stderr, "netpartverify: -sem %q is not rendezvous, buffered, or both\n", *sem)
		return nil, nil, false
	}
	if v.maxP < 2 {
		fmt.Fprintln(os.Stderr, "netpartverify: -p must be at least 2")
		return nil, nil, false
	}
	patterns = fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	return v, patterns, true
}

// verifier drives the instantiate/check/replay loop and owns the output.
type verifier struct {
	stdout     io.Writer
	sems       []protomc.Semantics
	maxP       int
	capacity   int
	maxStates  int
	asJSON     bool
	traceDir   string
	verbose    bool
	checks     int
	violations int
	traceSeq   int
}

// verify extracts and checks every lockstep protocol of the loaded
// packages and returns the command's exit status. ip is the interprocedural
// state of the loader the packages came from.
func (v *verifier) verify(pkgs []*analysis.Package, ip *analysis.Interproc) int {
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "netpartverify: %s: type error: %v\n", pkg.Path, e)
		}
		if len(pkg.TypeErrors) > 0 {
			return 2
		}
	}
	protos, diags, err := analysis.ExtractProtos(pkgs, ip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netpartverify:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	sort.Slice(protos, func(i, j int) bool { return protos[i].Fn < protos[j].Fn })
	for _, lp := range protos {
		if err := v.verifyProto(lp); err != nil {
			fmt.Fprintln(os.Stderr, "netpartverify:", err)
			return 2
		}
	}
	bad := len(diags) + v.violations
	if !v.asJSON {
		fmt.Fprintf(v.stdout, "netpartverify: %d protocols, %d checks, %d violations\n",
			len(protos), v.checks, bad)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// verifyProto checks one lockstep protocol at every P and semantics.
func (v *verifier) verifyProto(lp *analysis.LockstepProto) error {
	for p := 2; p <= v.maxP; p++ {
		systems, err := systemsAt(lp, p)
		if err != nil {
			return err
		}
		for _, sem := range v.sems {
			if lp.Buffered && sem == protomc.Rendezvous {
				if !v.asJSON {
					fmt.Fprintf(v.stdout, "skip %-28s P=%d %-10s (declared buffered)\n", lp.Fn, p, sem)
				}
				continue
			}
			agg := struct {
				states, depth, maxq, bad int
				elapsed                  time.Duration
			}{}
			for _, sys := range systems {
				cfg := protomc.Config{Sem: sem, Capacity: v.capacity, MaxStates: v.maxStates}
				start := time.Now()
				res, err := protomc.Check(sys, cfg)
				elapsed := time.Since(start)
				if err != nil {
					return fmt.Errorf("%s P=%d: %w", sys.Name, p, err)
				}
				v.checks++
				rec := &record{
					Result: res, Assign: sys.Assign, Fn: lp.Fn,
					ElapsedMs: float64(elapsed.Microseconds()) / 1000,
				}
				if res.Violation != nil {
					v.violations++
					agg.bad++
					rep, rerr := protomc.Replay(sys, res.Violation)
					if rerr != nil {
						rec.ReplayErr = rerr.Error()
					} else {
						rec.Replay = rep
					}
					if err := v.emitViolation(sys, rec); err != nil {
						return err
					}
				}
				agg.states += res.States
				agg.elapsed += elapsed
				agg.depth = max(agg.depth, res.Depth)
				agg.maxq = max(agg.maxq, res.MaxInFlight)
				if v.asJSON {
					if err := json.NewEncoder(v.stdout).Encode(rec); err != nil {
						return err
					}
				} else if v.verbose {
					v.printCheck(rec)
				}
			}
			if !v.asJSON && !v.verbose {
				status := "ok  "
				if agg.bad > 0 {
					status = "FAIL"
				}
				fmt.Fprintf(v.stdout, "%s %-28s P=%d %-10s systems=%d states=%d depth=%d maxq=%d %s\n",
					status, lp.Fn, p, sem, len(systems),
					agg.states, agg.depth, agg.maxq, agg.elapsed.Round(time.Millisecond))
			}
		}
	}
	return nil
}

// systemsAt instantiates lp at world size p: the extracted symbolic
// protocol over every shared-parameter assignment, or every instance of
// the builtin model the directive named.
func systemsAt(lp *analysis.LockstepProto, p int) ([]*protomc.System, error) {
	if lp.Model != "" {
		return builtinSystems(lp.Model, p)
	}
	return protomc.InstantiateAll(lp.Proto, p)
}

// printCheck writes the -v per-system line.
func (v *verifier) printCheck(rec *record) {
	status := "ok  "
	if rec.Violation != nil {
		status = "FAIL"
	}
	assign := rec.Assign
	if assign != "" {
		assign = " [" + assign + "]"
	}
	fmt.Fprintf(v.stdout, "%s %-28s P=%d %-10s%s states=%d depth=%d maxq=%d %.1fms\n",
		status, rec.Protocol, rec.P, rec.Sem, assign,
		rec.States, rec.Depth, rec.MaxInFlight, rec.ElapsedMs)
}

// emitViolation prints the counterexample and, with -trace-dir, writes the
// full record as a JSON trace file for artifact upload.
func (v *verifier) emitViolation(sys *protomc.System, rec *record) error {
	if !v.asJSON {
		fmt.Fprintf(v.stdout, "FAIL %s P=%d %s", sys.Name, sys.P, rec.Sem)
		if sys.Assign != "" {
			fmt.Fprintf(v.stdout, " [%s]", sys.Assign)
		}
		fmt.Fprintf(v.stdout, "\n%s", indent(rec.Violation.String()))
		if rec.Replay != nil {
			fmt.Fprintf(v.stdout, "  replay: confirmed=%v %s\n", rec.Replay.Confirmed, rec.Replay.Detail)
		} else if rec.ReplayErr != "" {
			fmt.Fprintf(v.stdout, "  replay error: %s\n", rec.ReplayErr)
		}
	}
	if v.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(v.traceDir, 0o755); err != nil {
		return err
	}
	v.traceSeq++
	name := fmt.Sprintf("%s-P%d-%s-%03d.json", sanitize(sys.Name), sys.P, rec.Sem, v.traceSeq)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(v.traceDir, name), append(data, '\n'), 0o644)
}

// sanitize maps a protocol name to a filesystem-safe trace-file stem.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		}
		return '_'
	}, name)
}

// indent prefixes every line of s with two spaces.
func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}
