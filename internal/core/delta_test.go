package core

import (
	"errors"
	"testing"

	"netpart/internal/cost"
	"netpart/internal/model"
)

// deltaEstimators returns the estimator variants the delta path must match
// bit for bit: the plain paper model, the overlapped-communication variant,
// the startup-cost variant, and both together, as stencil.Annotations
// declares STEN-2 (the estimator BenchmarkEstimateDelta probes).
func deltaEstimators(t *testing.T) map[string]*Estimator {
	t.Helper()
	out := map[string]*Estimator{}
	for _, v := range []struct {
		label            string
		overlap, startup bool
	}{{"plain", false, false}, {"overlap", true, false}, {"startup", false, true}, {"overlap+startup", true, true}} {
		ann := stencilAnnotations(600, v.overlap)
		if v.startup {
			ann.StartupBytesPerPDU = 4 * 600
		}
		e, err := NewEstimator(model.PaperTestbed(), cost.PaperTable(), ann)
		if err != nil {
			t.Fatal(err)
		}
		out[v.label] = e
	}
	return out
}

// TestDeltaProbeMatchesEstimate pins the delta evaluator's hard invariant:
// for every base configuration, varied cluster, and probed count, Probe is
// bit-for-bit identical to a freshly bound Estimate of the probe vector —
// including the error cases.
func TestDeltaProbeMatchesEstimate(t *testing.T) {
	clusters := []string{model.Sparc2Cluster, model.IPCCluster}
	for label, e := range deltaEstimators(t) {
		ref := e.Clone()
		for b1 := 0; b1 <= 6; b1++ {
			for b2 := 0; b2 <= 6; b2++ {
				base := cost.Config{Clusters: clusters, Counts: []int{b1, b2}}
				d, err := e.BeginDelta(base)
				if err != nil {
					t.Fatalf("%s base %v: %v", label, base, err)
				}
				for k := 0; k < 2; k++ {
					for p := 0; p <= 6; p++ {
						got, gotErr := d.Probe(k, p)
						probe := cost.Config{Clusters: clusters, Counts: append([]int(nil), base.Counts...)}
						probe.Counts[k] = p
						want, wantErr := ref.Clone().Estimate(probe)
						if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, wantErr)) {
							t.Fatalf("%s base %v k=%d p=%d: error %v, want %v", label, base, k, p, gotErr, wantErr)
						}
						if wantErr != nil {
							continue
						}
						if got.TcMs != want.TcMs || got.TcompMs != want.TcompMs ||
							got.TcommMs != want.TcommMs || got.ToverlapMs != want.ToverlapMs ||
							got.StartupMs != want.StartupMs || got.BytesPerMsg != want.BytesPerMsg {
							t.Fatalf("%s base %v k=%d p=%d:\n delta %+v\n  full %+v", label, base, k, p, got, want)
						}
						for i := range want.Shares {
							if got.Shares[i] != want.Shares[i] {
								t.Fatalf("%s base %v k=%d p=%d: shares %v, want %v", label, base, k, p, got.Shares, want.Shares)
							}
						}
						for i, c := range want.Config.Counts {
							if got.Config.Counts[i] != c {
								t.Fatalf("%s base %v k=%d p=%d: counts %v, want %v", label, base, k, p, got.Config.Counts, want.Config.Counts)
							}
						}
					}
				}
			}
		}
	}
}

// TestDeltaRebaseTracksMutations pins the Rebase contract: the base Counts
// slice is aliased, so mutating it and calling Rebase must re-anchor the
// partial sums exactly as a fresh BeginDelta would, and a probe after
// Rebase matches a freshly bound Estimate.
func TestDeltaRebaseTracksMutations(t *testing.T) {
	e := deltaEstimators(t)["startup"]
	base := cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{1, 0},
	}
	d, err := e.BeginDelta(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Counts[0] = 6 // the search settles cluster 0 in full
	d.Rebase()
	fresh, err := e.BeginDelta(cost.Config{Clusters: base.Clusters, Counts: []int{6, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p <= 6; p++ {
		got, err := d.Probe(1, p)
		if err != nil {
			t.Fatal(err)
		}
		got = got.Detach()
		want, err := fresh.Probe(1, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.TcMs != want.TcMs || got.StartupMs != want.StartupMs {
			t.Fatalf("p=%d: rebased probe %+v, fresh probe %+v", p, got, want)
		}
		bound, err := e.Clone().Estimate(cost.Config{Clusters: base.Clusters, Counts: []int{6, p}})
		if err != nil {
			t.Fatal(err)
		}
		if got.TcMs != bound.TcMs || got.StartupMs != bound.StartupMs || got.TcommMs != bound.TcommMs {
			t.Fatalf("p=%d: rebased probe %+v, bound Estimate %+v", p, got, bound)
		}
	}
}

// TestDeltaProbeZeroAllocs pins the delta fast path's raison d'être: once
// the memo is warm, a probe performs no heap allocations. Its
// "overlap+startup" case is BenchmarkEstimateDelta's probe, so this is that
// benchmark's zero-allocation budget; (DeltaEval).Probe is
// //netpart:hotpath, and this is the dynamic half of that contract.
func TestDeltaProbeZeroAllocs(t *testing.T) {
	for label, e := range deltaEstimators(t) {
		base := cost.Config{
			Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
			Counts:   []int{6, 0},
		}
		d, err := e.BeginDelta(base)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Probe(1, 3); err != nil { // warm the lazy memos
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for k := 0; k < 2; k++ {
				for p := 1; p <= 6; p++ {
					if _, err := d.Probe(k, p); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm Probe allocates %.2f/op, want 0", label, allocs)
		}
	}
}

// TestDeltaObserverFallback pins what an attached Observer sees from the
// evaluator: each probe emits one candidate labeled with the varied
// cluster and count, numbered by the evaluation counter, whose figures are
// the unobserved probe's bit for bit.
func TestDeltaObserverFallback(t *testing.T) {
	for label, e := range deltaEstimators(t) {
		base := cost.Config{
			Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
			Counts:   []int{6, 0},
		}
		plain, err := e.Clone().BeginDelta(base)
		if err != nil {
			t.Fatal(err)
		}
		observed := e.Clone()
		trace := &SearchTrace{}
		observed.Observer = trace
		d, err := observed.BeginDelta(base)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p <= 6; p++ {
			want, err := plain.Probe(1, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Probe(1, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(trace.Candidates) != p+1 {
				t.Fatalf("%s p=%d: observed %d candidates, want %d", label, p, len(trace.Candidates), p+1)
			}
			c := trace.Candidates[p]
			if c.Cluster != model.IPCCluster || c.P != p || c.Cached || c.Evaluation != p+1 {
				t.Errorf("%s: candidate labeled (%q, %d, cached=%v, eval %d), want (%q, %d, false, %d)",
					label, c.Cluster, c.P, c.Cached, c.Evaluation, model.IPCCluster, p, p+1)
			}
			if got.TcMs != want.TcMs || c.TcMs != want.TcMs || c.TcompMs != want.TcompMs ||
				c.TcommMs != want.TcommMs || c.ToverlapMs != want.ToverlapMs || c.StartupMs != want.StartupMs {
				t.Errorf("%s p=%d: observed %+v / %+v, unobserved %+v", label, p, got, c, want)
			}
			for i := range want.Shares {
				if c.Shares[i] != want.Shares[i] || c.Config.Counts[i] != want.Config.Counts[i] {
					t.Errorf("%s p=%d: candidate %v %v, want %v %v", label, p, c.Config, c.Shares, want.Config, want.Shares)
				}
			}
		}
	}
}
