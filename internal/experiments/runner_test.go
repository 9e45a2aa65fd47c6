package experiments

import (
	"strings"
	"testing"

	"netpart/internal/stencil"
)

// TestParallelDeterminism is the engine's core guarantee: the rendered
// output of the parallelized experiments is byte-identical whether the
// worker pool is serial or wide. (The simulator runs in virtual time and
// every unit writes its own index-addressed slot, so scheduling cannot
// leak into the results.)
func TestParallelDeterminism(t *testing.T) {
	serial := env(t).Clone()
	serial.Jobs = 1
	wide := env(t).Clone()
	wide.Jobs = 8

	render := func(e *Env) string {
		var b strings.Builder
		t2, err := Table2(e)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderTable2(t2))
		f3, err := Fig3(e, 600, stencil.STEN2)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderFig3(f3, 600, stencil.STEN2))
		ab, err := Ablations(e)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderAblations(ab))
		ext, err := ExtendedAblations(e)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderAblations(ext))
		return b.String()
	}
	want := render(serial)
	got := render(wide)
	if got != want {
		t.Errorf("parallel output diverges from serial:\n--- serial ---\n%s\n--- jobs=8 ---\n%s", want, got)
	}
}
