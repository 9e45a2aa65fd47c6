package experiments

import (
	"strings"
	"testing"
)

// TestParallelDeterminism is the engine's core guarantee: the rendered
// output of every section that fans out is byte-identical whether the
// worker pool is serial or wide. (The simulator runs in virtual time and
// every unit writes its own index-addressed slot, so scheduling cannot
// leak into the results.)
func TestParallelDeterminism(t *testing.T) {
	fansOut := map[string]bool{"table2": true, "fig3": true, "ablations": true,
		"implselect": true, "selectioncost": true, "noise": true, "startup": true}
	render := func(jobs int) (string, int) {
		e := env(t).Clone()
		e.Jobs = jobs
		var b strings.Builder
		ran := 0
		for _, s := range Sections(e, "fitted", 600) {
			if !fansOut[s.Key] {
				continue
			}
			out, err := s.Run()
			if err != nil {
				t.Fatalf("%s: %v", s.Title, err)
			}
			b.WriteString(s.Title + "\n" + out)
			ran++
		}
		return b.String(), ran
	}
	want, ran := render(1)
	if got, _ := render(8); got != want {
		t.Errorf("parallel output diverges from serial:\n--- serial ---\n%s\n--- jobs=8 ---\n%s", want, got)
	}
	// E2 and E29 (with its held-out rows), E3, both ablation sets, E11,
	// E12, E14 and E15.
	if ran != 9 {
		t.Errorf("%d sections rendered, want 9", ran)
	}
}
