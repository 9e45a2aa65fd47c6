package stencil

import (
	"testing"
	"time"

	"netpart/internal/core"
	"netpart/internal/faults"
	"netpart/internal/mmps"
	"netpart/internal/obs/drift"
	"netpart/internal/repart"
)

// Race-stress scenarios: compact enough to run under -race -count=5 in CI,
// but exercising the full concurrent surface — all ranks pumping frames,
// a crash mid-run, packet duplication and delay below the transport, and
// the recovery barrier's flood/merge/restart machinery. The detection
// window is wider than fastDetect because the race detector slows
// everything several-fold.

func raceDetect() (time.Duration, int) { return 100 * time.Millisecond, 2 }

func raceWorld(t *testing.T, n int, inj faults.Injector) []mmps.Transport {
	t.Helper()
	var opts []mmps.Option
	if inj != nil {
		opts = append(opts, mmps.WithInjector(inj))
	}
	locals, err := mmps.NewLocalWorld(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	world := make([]mmps.Transport, n)
	for i, l := range locals {
		world[i] = l
	}
	t.Cleanup(func() {
		for _, l := range locals {
			l.Close()
		}
	})
	return world
}

// TestRaceStressCrashWithPacketFaults: a crash landing on top of
// duplicated and delayed packets — detection, the recovery barrier, and
// row migration all race against a noisy transport.
func TestRaceStressCrashWithPacketFaults(t *testing.T) {
	const n, iters = 48, 16
	sched := faults.MustParse("crash:2@6;dup:0.2;delay:0.1,2")
	eng := faults.NewEngine(sched, 1, nil)
	world := raceWorld(t, 6, eng)
	dt, dr := raceDetect()
	res, err := Live(world, core.Vector{8, 8, 8, 8, 8, 8}, STEN2, n, iters, Options{
		Injector: eng,
		FT:       &FT{CheckpointEvery: 4, DetectTimeout: dt, DetectRetries: dr},
	})
	if err != nil {
		t.Fatalf("Live with FT: %v", err)
	}
	if len(res.Events) < 1 {
		t.Fatalf("recoveries = %d, want at least 1", len(res.Events))
	}
	if len(res.Failed) != 1 || res.Failed[0] != 2 {
		t.Fatalf("failed = %v, want [2]", res.Failed)
	}
	gridsMatch(t, res.Grid, Sequential(NewGrid(n), iters))
}

// TestRaceStressLossyNoCrash: sustained packet loss with every rank alive —
// the retransmission path churns concurrently with the compute loop and no
// verdict may fire.
func TestRaceStressLossyNoCrash(t *testing.T) {
	const n, iters = 48, 16
	eng := faults.NewEngine(faults.MustParse("drop:0.1;dup:0.1"), 7, nil)
	world := raceWorld(t, 6, eng)
	dt, dr := raceDetect()
	res, err := Live(world, core.Vector{8, 8, 8, 8, 8, 8}, STEN1, n, iters, Options{
		Injector: eng,
		FT:       &FT{CheckpointEvery: 4, DetectTimeout: dt, DetectRetries: dr},
	})
	if err != nil {
		t.Fatalf("Live with FT: %v", err)
	}
	if len(res.Events) != 0 || len(res.Failed) != 0 {
		t.Fatalf("lossy-but-live run triggered recovery (recoveries=%d failed=%v)", len(res.Events), res.Failed)
	}
	gridsMatch(t, res.Grid, Sequential(NewGrid(n), iters))
}

// TestRaceStressDriftTriggeredAdaptive: the drift-monitor → trigger → plan
// → migrate pipeline under the race detector with packet duplication and
// delay below the transport. The monitor's callback fires from rank
// goroutines while rank 0 consumes the trigger; migration reshapes every
// rank's block mid-run. The grid must stay bit-exact.
func TestRaceStressDriftTriggeredAdaptive(t *testing.T) {
	const n, iters = 48, 16
	eng := faults.NewEngine(faults.MustParse("dup:0.1;delay:0.1,1"), 11, nil)
	world := raceWorld(t, 6, eng)
	trig := &repart.DriftTrigger{}
	mon := drift.New(drift.Config{
		PredCycleMs:  1e-6, // any real cycle is "drift": fires immediately
		ThresholdPct: 1,
		Warmup:       1,
		Notify:       func(drift.Event) { trig.Fire() },
	}, nil, nil)
	res, err := Live(world, core.Vector{8, 8, 8, 8, 8, 8}, STEN1, n, iters, Options{
		Trigger:    trig,
		WorkFactor: []int{1, 1, 6, 1, 1, 1},
		Cycles:     mon,
	})
	if err != nil {
		t.Fatalf("Live: %v", err)
	}
	if len(res.Plans) == 0 {
		t.Fatal("no repart rounds recorded")
	}
	if res.Plans[0].Reason != "drift" {
		t.Errorf("first plan reason %q, want drift-triggered", res.Plans[0].Reason)
	}
	if res.FinalVector.Sum() != n {
		t.Fatalf("final vector sums to %d, want %d", res.FinalVector.Sum(), n)
	}
	gridsMatch(t, res.Grid, Sequential(NewGrid(n), iters))
}
