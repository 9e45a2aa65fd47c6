package spmd

import (
	"errors"
	"math"
	"testing"

	"netpart/internal/core"
	"netpart/internal/model"
	"netpart/internal/topo"
)

func job(t *testing.T, p1, p2 int, vec core.Vector, body func(*Task)) Job {
	t.Helper()
	pl, err := topo.Contiguous([]string{model.Sparc2Cluster, model.IPCCluster}, []int{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Net:       model.PaperTestbed(),
		Placement: pl,
		Vector:    vec,
		Topology:  topo.OneD{},
		Body:      body,
	}
}

func TestRunAssignsRanksAndPDUs(t *testing.T) {
	var ranks, pdus, offsets []int
	_, err := Run(job(t, 2, 1, core.Vector{5, 3, 2}, func(task *Task) {
		ranks = append(ranks, task.Rank())
		pdus = append(pdus, task.PDUs())
		offsets = append(offsets, task.PDUOffset())
		if task.NumTasks() != 3 {
			t.Errorf("NumTasks = %d", task.NumTasks())
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 3 {
		t.Fatalf("bodies run = %d", len(ranks))
	}
	wantPDUs := map[int]int{0: 5, 1: 3, 2: 2}
	wantOff := map[int]int{0: 0, 1: 5, 2: 8}
	for i, r := range ranks {
		if pdus[i] != wantPDUs[r] || offsets[i] != wantOff[r] {
			t.Errorf("rank %d: pdus=%d off=%d", r, pdus[i], offsets[i])
		}
	}
}

func TestRunPlacesTasksOnClusters(t *testing.T) {
	rep, err := Run(job(t, 2, 2, core.Vector{1, 1, 1, 1}, func(*Task) {}))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"sparc2", "sparc2", "ipc", "ipc"}
	if len(rep.Procs) != len(want) {
		t.Fatalf("%d procs, want %d", len(rep.Procs), len(want))
	}
	for r, c := range want {
		if rep.Procs[r].Cluster != c {
			t.Errorf("rank %d on %q, want %q", r, rep.Procs[r].Cluster, c)
		}
	}
}

func TestComputeAdvancesClusterTime(t *testing.T) {
	times := make(map[int]float64)
	_, err := Run(job(t, 1, 1, core.Vector{1, 1}, func(task *Task) {
		task.Compute(10000, model.OpFloat)
		times[task.Rank()] = task.NowMs()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(times[0]-3.0) > 1e-9 { // 10000 flops at 0.3 µs
		t.Errorf("sparc2 time = %v, want 3.0", times[0])
	}
	if math.Abs(times[1]-6.0) > 1e-9 {
		t.Errorf("ipc time = %v, want 6.0", times[1])
	}
}

func TestExchangeBordersSynchronous(t *testing.T) {
	// Each task sends its rank to its neighbors and receives theirs.
	got := make([]map[int]interface{}, 4)
	_, err := Run(job(t, 4, 0, core.Vector{1, 1, 1, 1}, func(task *Task) {
		got[task.Rank()] = task.ExchangeBorders(100, func(int) interface{} { return task.Rank() })
	}))
	if err != nil {
		t.Fatal(err)
	}
	for rank, m := range got {
		ns := topo.OneD{}.Neighbors(rank, 4)
		if len(m) != len(ns) {
			t.Errorf("rank %d received %d payloads, want %d", rank, len(m), len(ns))
		}
		for _, nb := range ns {
			if m[nb] != nb {
				t.Errorf("rank %d got %v from %d", rank, m[nb], nb)
			}
		}
	}
}

func TestExchangeBordersNilPayload(t *testing.T) {
	_, err := Run(job(t, 2, 0, core.Vector{1, 1}, func(task *Task) {
		m := task.ExchangeBorders(10, nil)
		if len(m) != 1 {
			t.Errorf("rank %d exchange = %v", task.Rank(), m)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsFollowTopology(t *testing.T) {
	var n3 []int
	pl, _ := topo.Contiguous([]string{model.Sparc2Cluster}, []int{6})
	_, err := Run(Job{
		Net:       model.PaperTestbed(),
		Placement: pl,
		Vector:    core.Vector{1, 1, 1, 1, 1, 1},
		Topology:  topo.Ring{},
		Body: func(task *Task) {
			if task.Rank() == 0 {
				n3 = task.Neighbors()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(n3) != 2 || n3[0] != 1 || n3[1] != 5 {
		t.Errorf("ring neighbors of 0 = %v", n3)
	}
}

func TestRunReportsStats(t *testing.T) {
	rep, err := Run(job(t, 2, 0, core.Vector{1, 1}, func(task *Task) {
		task.Compute(1000, model.OpFloat)
		task.ExchangeBorders(500, nil)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ElapsedMs <= 0 {
		t.Error("no elapsed time")
	}
	if len(rep.Procs) != 2 {
		t.Fatalf("proc stats = %+v", rep.Procs)
	}
	for _, p := range rep.Procs {
		if p.Sent != 1 || p.Received != 1 {
			t.Errorf("task %s sent/recv = %d/%d", p.Name, p.Sent, p.Received)
		}
	}
	var bytes int64
	for _, s := range rep.Segments {
		bytes += s.Bytes
	}
	if bytes != 1000 { // two 500-byte messages, both on ether-1
		t.Errorf("segment bytes = %d", bytes)
	}
}

func TestRunValidation(t *testing.T) {
	pl, _ := topo.Contiguous([]string{model.Sparc2Cluster}, []int{2})
	base := Job{
		Net:       model.PaperTestbed(),
		Placement: pl,
		Vector:    core.Vector{1, 1},
		Topology:  topo.OneD{},
		Body:      func(*Task) {},
	}
	j := base
	j.Vector = core.Vector{1}
	if _, err := Run(j); !errors.Is(err, ErrVectorMismatch) {
		t.Errorf("vector mismatch: %v", err)
	}
	j = base
	j.Placement = topo.Placement{}
	j.Vector = nil
	if _, err := Run(j); !errors.Is(err, ErrNoTasks) {
		t.Errorf("no tasks: %v", err)
	}
	j = base
	j.Body = nil
	if _, err := Run(j); err == nil {
		t.Error("nil body accepted")
	}
}

func TestRunPropagatesDeadlock(t *testing.T) {
	_, err := Run(job(t, 2, 0, core.Vector{1, 1}, func(task *Task) {
		if task.Rank() == 0 {
			task.Recv(1) // rank 1 never sends
		}
	}))
	if err == nil {
		t.Error("deadlock not reported")
	}
}
