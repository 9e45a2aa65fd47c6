package manager

import (
	"math"
	"sync"
	"testing"
	"time"

	"netpart/internal/mmps"
	"netpart/internal/model"
)

func TestPolicyAvailable(t *testing.T) {
	p := Policy{Threshold: 0.25}
	got := p.Available([]float64{0, 0.1, 0.25, 0.3, 1.5})
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Available = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Available = %v, want %v", got, want)
		}
	}
}

func TestManagerRefreshUpdatesCluster(t *testing.T) {
	net := model.PaperTestbed()
	c := net.Cluster(model.Sparc2Cluster)
	m := New(c, DefaultPolicy)
	if got := m.Refresh(); got != 6 {
		t.Errorf("all idle: available = %d, want 6", got)
	}
	if err := m.SetLoad(0, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := m.SetLoad(3, 2.0); err != nil {
		t.Fatal(err)
	}
	if got := m.Refresh(); got != 4 {
		t.Errorf("two busy: available = %d, want 4", got)
	}
	if c.Available != 4 {
		t.Errorf("cluster not updated: %d", c.Available)
	}
}

func TestSetLoadValidation(t *testing.T) {
	m := New(model.PaperTestbed().Cluster(model.Sparc2Cluster), DefaultPolicy)
	if err := m.SetLoad(99, 0.1); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := m.SetLoad(0, -1); err == nil {
		t.Error("negative load accepted")
	}
}

func TestMeanLoadOnlyCountsAvailable(t *testing.T) {
	m := New(model.PaperTestbed().Cluster(model.Sparc2Cluster), Policy{Threshold: 0.25})
	m.SetLoad(0, 0.1)
	m.SetLoad(1, 0.2)
	m.SetLoad(2, 5.0) // unavailable; excluded from the mean
	got := m.MeanLoad()
	want := (0.1 + 0.2 + 0 + 0 + 0) / 5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanLoad = %v, want %v", got, want)
	}
}

func TestMeanLoadAll(t *testing.T) {
	m := New(model.PaperTestbed().Cluster(model.Sparc2Cluster), DefaultPolicy)
	m.SetLoad(0, 3.0)
	m.SetLoad(1, 3.0)
	want := 6.0 / 6
	if got := m.MeanLoadAll(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanLoadAll = %v, want %v", got, want)
	}
}

func TestAdjustedOpTime(t *testing.T) {
	if got := AdjustedOpTime(0.0003, 1.0); math.Abs(got-0.0006) > 1e-12 {
		t.Errorf("load 1.0 should double op time: %v", got)
	}
	if got := AdjustedOpTime(0.0003, 0); got != 0.0003 {
		t.Errorf("idle should not change op time: %v", got)
	}
	if got := AdjustedOpTime(0.0003, -5); got != 0.0003 {
		t.Errorf("negative load clamped: %v", got)
	}
}

func TestExchangeAllGather(t *testing.T) {
	net := model.PaperTestbed()
	eps, err := mmps.NewLocalWorld(2, mmps.WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	mgrs := []*Manager{
		New(net.Cluster(model.Sparc2Cluster), DefaultPolicy),
		New(net.Cluster(model.IPCCluster), DefaultPolicy),
	}
	mgrs[1].SetLoad(0, 3.0) // one IPC busy

	results := make([][]Report, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := Exchange(eps[i], mgrs[i].Report())
			if err != nil {
				t.Errorf("manager %d: %v", i, err)
				return
			}
			results[i] = r
		}()
	}
	wg.Wait()
	for i, rs := range results {
		if len(rs) != 2 {
			t.Fatalf("manager %d got %d reports", i, len(rs))
		}
		if rs[0].Cluster != model.Sparc2Cluster || rs[0].Available != 6 {
			t.Errorf("manager %d: sparc2 report %+v", i, rs[0])
		}
		if rs[1].Cluster != model.IPCCluster || rs[1].Available != 5 {
			t.Errorf("manager %d: ipc report %+v", i, rs[1])
		}
	}
}

func TestExchangeOverUDP(t *testing.T) {
	net := model.PaperTestbed()
	eps, err := mmps.NewUDPWorld(2, mmps.WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	mgrs := []*Manager{
		New(net.Cluster(model.Sparc2Cluster), DefaultPolicy),
		New(net.Cluster(model.IPCCluster), DefaultPolicy),
	}
	var wg sync.WaitGroup
	results := make([][]Report, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := Exchange(eps[i], mgrs[i].Report())
			if err != nil {
				t.Errorf("manager %d: %v", i, err)
				return
			}
			results[i] = r
		}()
	}
	wg.Wait()
	if results[0] == nil || results[1] == nil {
		t.Fatal("exchange failed")
	}
	if results[0][1].Cluster != model.IPCCluster {
		t.Errorf("report routing wrong: %+v", results[0])
	}
}

func TestApplyUpdatesAvailability(t *testing.T) {
	net := model.PaperTestbed()
	Apply(net, []Report{
		{Cluster: model.Sparc2Cluster, Available: 2},
		{Cluster: "unknown", Available: 1},
		{Cluster: model.IPCCluster, Available: 99}, // out of range: ignored
	})
	if got := net.Cluster(model.Sparc2Cluster).Available; got != 2 {
		t.Errorf("sparc2 available = %d, want 2", got)
	}
	if got := net.Cluster(model.IPCCluster).Available; got != 6 {
		t.Errorf("ipc available = %d, want unchanged 6", got)
	}
}

func TestAdjustSpeedsIsNonDestructive(t *testing.T) {
	net := model.PaperTestbed()
	adjusted := AdjustSpeeds(net, []Report{
		{Cluster: model.Sparc2Cluster, MeanLoadAll: 1.0},
	})
	if got := adjusted.Cluster(model.Sparc2Cluster).FloatOpTime; math.Abs(got-0.0006) > 1e-12 {
		t.Errorf("adjusted op time = %v, want 0.0006", got)
	}
	if got := net.Cluster(model.Sparc2Cluster).FloatOpTime; got != 0.0003 {
		t.Errorf("original mutated: %v", got)
	}
	if got := adjusted.Cluster(model.IPCCluster).FloatOpTime; got != 0.0006 {
		t.Errorf("unreported cluster changed: %v", got)
	}
	if err := adjusted.Validate(); err != nil {
		t.Errorf("adjusted network invalid: %v", err)
	}
}
