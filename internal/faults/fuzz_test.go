package faults_test

import (
	"testing"
	"time"

	"netpart/internal/core"
	"netpart/internal/faults"
	"netpart/internal/mmps"
	"netpart/internal/stencil"
)

// FuzzScheduleRoundTrip: any schedule that parses must survive a
// String → Parse round trip as a fixed point.
func FuzzScheduleRoundTrip(f *testing.F) {
	f.Add("crash:3@12")
	f.Add("drop:0.1@50-200;delay:0.2,8")
	f.Add("dup:0.05;slow:2,4@5-15;part:6@100-220")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 256 {
			t.Skip("oversized input")
		}
		sched, err := faults.Parse(s)
		if err != nil {
			t.Skip("unparseable")
		}
		rendered := sched.String()
		again, err := faults.Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) ok but re-Parse(%q) failed: %v", s, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("String not a fixed point: %q → %q", rendered, got)
		}
	})
}

// FuzzFaultSchedule: any parseable schedule, once sanitized to the world's
// bounds, must leave the fault-tolerant runtime with the bit-for-bit
// sequential result — the transport absorbs packet faults, the recovery
// pipeline absorbs the (at most one, after Sanitize) crash, and no fault
// mix may wedge the run or corrupt the grid.
func FuzzFaultSchedule(f *testing.F) {
	const n, iters, ranks = 24, 12, 6
	want := stencil.Sequential(stencil.NewGrid(n), iters)

	f.Add("crash:2@5")
	f.Add("drop:0.1;delay:0.2,3")
	f.Add("crash:4@7;dup:0.2;part:3@0-80")
	f.Add("slow:1,3@2-9;drop:0.05")
	f.Add("part:2@0-100;delay:0.1,2")

	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 256 {
			t.Skip("oversized input")
		}
		parsed, err := faults.Parse(s)
		if err != nil {
			t.Skip("unparseable")
		}
		sched := parsed.Sanitize(ranks, iters)
		eng := faults.NewEngine(sched, 1, nil)
		locals, lerr := mmps.NewLocalWorld(ranks, mmps.WithInjector(eng))
		if lerr != nil {
			t.Fatal(lerr)
		}
		defer func() {
			for _, l := range locals {
				l.Close()
			}
		}()
		world := make([]mmps.Transport, ranks)
		for i, l := range locals {
			world[i] = l
		}
		res, err := stencil.Live(world, core.Vector{4, 4, 4, 4, 4, 4}, stencil.STEN1, n, iters, stencil.Options{
			Injector: eng,
			FT: &stencil.FT{
				CheckpointEvery: 4,
				DetectTimeout:   60 * time.Millisecond,
				DetectRetries:   2,
			},
		})
		if err != nil {
			t.Fatalf("Live with FT under sanitized %q (from %q): %v", sched.String(), s, err)
		}
		for _, ev := range res.Events {
			if sum := ev.Vector.Sum(); sum != n {
				t.Fatalf("recovery event vector sums to %d, want %d: %+v", sum, n, ev)
			}
		}
		if sum := res.FinalVector.Sum(); sum != n {
			t.Fatalf("final vector sums to %d, want %d", sum, n)
		}
		if len(res.Grid) != n {
			t.Fatalf("grid of %d rows, want %d", len(res.Grid), n)
		}
		for i := range want {
			for j := range want[i] {
				if res.Grid[i][j] != want[i][j] {
					t.Fatalf("grid[%d][%d] = %v, want %v under sanitized %q", i, j, res.Grid[i][j], want[i][j], sched.String())
				}
			}
		}
	})
}
