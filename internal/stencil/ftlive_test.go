package stencil

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/faults"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/repart"
)

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// ftWorld builds a local transport world as []mmps.Transport.
func ftWorld(t testing.TB, n int) []mmps.Transport {
	t.Helper()
	locals, err := mmps.NewLocalWorld(n)
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

func fastDetect() (time.Duration, int) { return 60 * time.Millisecond, 2 }

// paperVector derives the 12-rank paper-testbed partition vector and the
// rank → cluster placement.
func paperVector(t *testing.T, n, iters int, v Variant) (*model.Network, core.Vector, []string) {
	t.Helper()
	net := model.PaperTestbed()
	cfg := cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{6, 6},
	}
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	placement := make([]string, 0, 12)
	for i := 0; i < 6; i++ {
		placement = append(placement, model.Sparc2Cluster)
	}
	for i := 0; i < 6; i++ {
		placement = append(placement, model.IPCCluster)
	}
	_ = iters
	_ = v
	return net, vec, placement
}

func gridsMatch(t *testing.T, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("grid of %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("grid[%d][%d] = %v, want %v (must be bit-for-bit)", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestRunLiveFTFaultFree: with no faults the FT runtime is just a plain Live run
// with extra bookkeeping — identical results, zero recoveries.
func TestRunLiveFTFaultFree(t *testing.T) {
	const n, iters = 32, 20
	world := ftWorld(t, 4)
	dt, dr := fastDetect()
	res, err := Live(world, core.Vector{8, 8, 8, 8}, STEN1, n, iters, Options{
		FT: &FT{DetectTimeout: dt, DetectRetries: dr, CheckpointEvery: 5},
	})
	if err != nil {
		t.Fatalf("Live with FT: %v", err)
	}
	if len(res.Events) != 0 || len(res.Failed) != 0 {
		t.Fatalf("fault-free run reported %d recoveries, failed=%v", len(res.Events), res.Failed)
	}
	gridsMatch(t, res.Grid, Sequential(NewGrid(n), iters))
}

// TestRunLiveFTRetiredMiddleRank: a repartition that gives a live middle
// rank no rows retires it, and the owners on either side of it become
// neighbours in the FT link's rank space. The run stays bit-exact, and the
// retired rank is neither reported failed nor waited on: a wait on it would
// end in a verdict, a second recovery and a deadset naming it.
func TestRunLiveFTRetiredMiddleRank(t *testing.T) {
	const n, iters, crashed = 30, 16, 4
	retire := core.Vector{10, 10, 0, 10, 0}
	dt, dr := fastDetect()
	for _, v := range []Variant{STEN1, STEN2} {
		res, err := Live(ftWorld(t, 5), core.Vector{6, 6, 6, 6, 6}, v, n, iters, Options{
			Injector: faults.NewEngine(faults.Schedule{Crashes: []faults.Crash{{Rank: crashed, Cycle: 6}}}, 1, nil),
			FT: &FT{Repartition: func(alive []int) (core.Vector, error) {
				if !reflect.DeepEqual(alive, []int{0, 1, 2, 3}) {
					return nil, fmt.Errorf("repartition over %v, want the four survivors", alive)
				}
				return retire, nil
			}, CheckpointEvery: 4, DetectTimeout: dt, DetectRetries: dr},
		})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !reflect.DeepEqual(res.Failed, []int{crashed}) {
			t.Errorf("%s: failed = %v, want [%d]", v, res.Failed, crashed)
		}
		if len(res.Events) != 1 || !reflect.DeepEqual(res.Events[0].Dead, []int{crashed}) {
			t.Errorf("%s: recovery events %v, want one with dead [%d]", v, res.Events, crashed)
		}
		if !reflect.DeepEqual(res.FinalVector, retire) {
			t.Errorf("%s: final vector %v, want %v", v, res.FinalVector, retire)
		}
		gridsMatch(t, res.Grid, Sequential(NewGrid(n), iters))
	}
}

// TestFTDetectBudgetDefault: the zero FT grants a silent peer the
// documented three extra windows of 200 ms before the verdict, and explicit
// values are kept.
func TestFTDetectBudgetDefault(t *testing.T) {
	for _, tc := range []struct {
		ft   FT
		want time.Duration
	}{
		{FT{}, 800 * time.Millisecond},
		{FT{DetectTimeout: 60 * time.Millisecond, DetectRetries: 2}, 180 * time.Millisecond},
	} {
		task := &ftTask{ft: tc.ft.withDefaults(4, 32)}
		if got := task.detectBudget(); got != tc.want {
			t.Errorf("%+v: detection budget %v, want %v", tc.ft, got, tc.want)
		}
	}
}

// newTestFTTask is rank tr's task of a fresh one-cycle FT run of N = 4 over
// the vector {2, 2}, with every FT option at its default.
func newTestFTTask(t testing.TB, tr mmps.Transport, v Variant) *ftTask {
	t.Helper()
	opts := Options{FT: &FT{}}
	j, err := newJob(true, core.Vector{2, 2}, 2, v, 4, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return newFTTask(tr, j, opts, &ftShared{}, time.Now())
}

// TestFTDispatchIgnoresRanksOutsideWorld: a FAIL or SYNC frame naming a rank
// the world does not have declares nobody dead and starts no recovery.
// Indexing the partition vector with that rank would panic the receiving
// rank's goroutine, which ends the whole process.
func TestFTDispatchIgnoresRanksOutsideWorld(t *testing.T) {
	world := ftWorld(t, 2)
	for _, frame := range [][]byte{
		ftFrame(ftFail, 0, 0, encodeDeadset([]int{2})),
		ftFrame(ftSync, 0, 0, encodeSyncInfo(syncInfo{dead: []int{-1, 7}, ward: -1})),
	} {
		task := newTestFTTask(t, world[0], STEN1)
		if err := task.dispatch(1, frame); err != nil {
			t.Fatal(err)
		}
		if task.needRecovery || len(task.dead) != 0 {
			t.Errorf("frame %x: needRecovery %v, dead %v", frame, task.needRecovery, task.dead)
		}
	}
}

// FuzzFTFrame: no byte string panics the FT wire decoders — the frame
// envelope, the deadset, the sync info and the row blocks — or a fresh
// task's dispatch of it as a frame from its peer.
func FuzzFTFrame(f *testing.F) {
	const n = 4
	row := make([]float64, n)
	f.Add([]byte{})
	f.Add(ftFrame(ftBorder, 0, 3, appendHaloFrame(nil, 1, 3, row)))
	f.Add(ftFrame(ftCkpt, 0, 8, repart.EncodeRows(2, [][]float64{row, row})))
	f.Add(ftFrame(ftFail, 0, 0, encodeDeadset([]int{2}))) // a rank past the world
	f.Add(ftFrame(ftSync, 1, 0, encodeSyncInfo(syncInfo{dead: []int{1}, ownLatest: 8, ward: 1, wardLatest: 8})))
	f.Add(ftFrame(ftRows, 1, 77, repart.EncodeRows(0, [][]float64{row})))
	f.Add(ftFrame(ftFinish, 0, 0, nil))
	f.Add([]byte{ftFail, 0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0}) // 2^30 ranks: 4+4n wraps a 32-bit int
	f.Add([]byte{ftSync, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	world := ftWorld(f, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		ftParse(data)
		decodeDeadset(data)
		decodeSyncInfo(data)
		repart.DecodeRows(data, n)
		task := newTestFTTask(t, world[0], STEN2)
		_ = task.dispatch(1, data)
	})
}

// TestRunLiveFTReportsExchangeTime: like plain Live, the FT runtime reports one
// exchange observation per rank per cycle, to the cycle sink and to
// stencil.exchange_ms, and no exchange is longer than the cycle it belongs to.
func TestRunLiveFTReportsExchangeTime(t *testing.T) {
	const n, iters, ranks = 32, 10, 4
	world := ftWorld(t, ranks)
	dt, dr := fastDetect()
	log := newCycleLog()
	reg := obs.NewRegistry()
	res, err := Live(world, core.Vector{8, 8, 8, 8}, STEN2, n, iters, Options{
		Metrics: reg,
		Cycles:  log,
		FT:      &FT{DetectTimeout: dt, DetectRetries: dr},
	})
	if err != nil {
		t.Fatalf("Live with FT: %v", err)
	}
	gridsMatch(t, res.Grid, Sequential(NewGrid(n), iters))
	if log.calls != ranks*iters || len(log.exchange) != ranks*iters || len(log.cycle) != ranks*iters {
		t.Errorf("%d OnCycle calls over %d (rank, cycle) exchange keys and %d cycle keys, want %d each",
			log.calls, len(log.exchange), len(log.cycle), ranks*iters)
	}
	for key, ex := range log.exchange {
		if cyc, ok := log.cycle[key]; !ok || ex < 0 || ex > cyc {
			t.Errorf("rank %d cycle %d: exchange %v ms against cycle %v ms (reported %v)", key[0], key[1], ex, cyc, ok)
		}
	}
	if got := reg.Histogram(MetricExchangeMs).N(); got != ranks*iters {
		t.Errorf("%s holds %d observations, want %d", MetricExchangeMs, got, ranks*iters)
	}
}

// TestRunLiveFTCrashRecovery is the acceptance scenario: a STEN-2 run on
// the paper testbed (12 ranks) with one node crashed mid-run detects the
// failure, re-partitions over the surviving 11 via the paper's algorithm,
// rolls back to the last checkpoint, and still produces the bit-for-bit
// fault-free result — deterministically.
func TestRunLiveFTCrashRecovery(t *testing.T) {
	const n, iters = 96, 30
	const crashRank, crashCycle = 3, 12
	net, vec, placement := paperVector(t, n, iters, STEN2)
	want := Sequential(NewGrid(n), iters)

	run := func() Result {
		world := ftWorld(t, 12)
		inj := faults.NewEngine(faults.Schedule{
			Crashes: []faults.Crash{{Rank: crashRank, Cycle: crashCycle}},
		}, 1, nil)
		dt, dr := fastDetect()
		reg := obs.NewRegistry()
		res, err := Live(world, vec, STEN2, n, iters, Options{
			Injector: inj,
			Metrics:  reg,
			FT: &FT{
				Repartition:     Repartitioner(net, cost.PaperTable(), STEN2, n, iters, placement),
				CheckpointEvery: 8,
				DetectTimeout:   dt,
				DetectRetries:   dr,
			},
		})
		if err != nil {
			t.Fatalf("Live with FT: %v", err)
		}
		if got := reg.Counter(MetricFTRecoveries).Value(); got != 1 {
			t.Fatalf("ft.recoveries = %d, want 1", got)
		}
		if reg.Counter(MetricFTFailures).Value() == 0 {
			t.Fatal("ft.failures_detected = 0, want at least one verdict")
		}
		return res
	}

	res := run()
	if len(res.Events) != 1 {
		t.Fatalf("recoveries = %d (events %v), want 1", len(res.Events), res.Events)
	}
	ev := res.Events[0]
	if len(ev.Dead) != 1 || ev.Dead[0] != crashRank {
		t.Fatalf("dead = %v, want [%d]", ev.Dead, crashRank)
	}
	if ev.RollbackCycle != 8 {
		t.Fatalf("rollback cycle = %d, want 8 (last checkpoint before crash at %d)", ev.RollbackCycle, crashCycle)
	}
	if res.FinalVector[crashRank] != 0 {
		t.Fatalf("final vector still assigns %d rows to the dead rank: %v", res.FinalVector[crashRank], res.FinalVector)
	}
	if sum := res.FinalVector.Sum(); sum != n {
		t.Fatalf("final vector sums to %d, want %d", sum, n)
	}
	if len(res.Failed) != 1 || res.Failed[0] != crashRank {
		t.Fatalf("failed = %v, want [%d]", res.Failed, crashRank)
	}
	gridsMatch(t, res.Grid, want)

	// Determinism: the recovery decision sequence repeats exactly.
	res2 := run()
	if len(res2.Events) != 1 || res2.Events[0].RollbackCycle != ev.RollbackCycle {
		t.Fatalf("second run events %v differ from first %v", res2.Events, res.Events)
	}
	for r := range res.FinalVector {
		if res.FinalVector[r] != res2.FinalVector[r] {
			t.Fatalf("final vectors differ: %v vs %v", res.FinalVector, res2.FinalVector)
		}
	}
	gridsMatch(t, res2.Grid, want)
}

// TestRunLiveFTCrashOverUDP runs the crash scenario over the real UDP
// transport.
func TestRunLiveFTCrashOverUDP(t *testing.T) {
	const n, iters = 24, 12
	conns, err := mmps.NewUDPWorld(4, mmps.WithRecvTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	world := make([]mmps.Transport, len(conns))
	for i, c := range conns {
		world[i] = c
	}
	inj := faults.NewEngine(faults.Schedule{
		Crashes: []faults.Crash{{Rank: 1, Cycle: 5}},
	}, 7, nil)
	res, err := Live(world, core.Vector{6, 6, 6, 6}, STEN1, n, iters, Options{
		Injector: inj,
		FT:       &FT{CheckpointEvery: 4, DetectTimeout: 150 * time.Millisecond, DetectRetries: 2},
	})
	if err != nil {
		t.Fatalf("Live with FT: %v", err)
	}
	if len(res.Events) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(res.Events))
	}
	gridsMatch(t, res.Grid, Sequential(NewGrid(n), iters))
}

// TestRunLiveFTFaultFreeOverUDPAtCheckpointSize pins the checkpoint-burst
// bug. At N = 512 on 4 ranks a buddy checkpoint is 128 rows x 512 points x
// 8 bytes = 524 KB = 375 datagrams. The old UDP engine wrote all 375 in one
// burst into the peer's 208 KB default receive buffer, so every checkpoint
// lost most of itself and paid several 20 ms RTO rounds (about 3.7 s for
// these 300 cycles), and because pings share the checkpoint's in-order
// stream they queued behind it: about 1 fault-free run in 24 ended in "too
// few survivors for a recovery quorum: 2 of 4" at a checkpoint cycle. With
// the fragment window (mmps sendWindow) the same run takes about 0.3 s,
// retransmits nothing, and six fresh worlds in a row finish without a
// verdict.
//
// Both things the test asserts are wall-clock properties, so it needs a
// machine that gives the ranks CPU. Retransmissions are bounded at 1 % of
// the data datagrams rather than at zero (the old engine re-sent 75 000 for
// 61 000, 120 %; the new one none on an idle box), and the race detector's
// build is skipped: there the runtime polls the network only every 10 ms
// or so while both threads are busy, an ack's round trip alone passes the
// 20 ms RTO a hundred times a run, a run takes 4 s instead of 0.3 s, and
// beside another package's tests the failure detector's 200 ms windows
// expire on live ranks.
func TestRunLiveFTFaultFreeOverUDPAtCheckpointSize(t *testing.T) {
	if testing.Short() || raceDetector() {
		t.Skip("six 300-cycle N=512 runs over loopback UDP, timing-sensitive")
	}
	const n, iters = 512, 300
	want := Sequential(NewGrid(n), iters)
	for run := 0; run < 6; run++ {
		m := obs.NewRegistry()
		conns, err := mmps.NewUDPWorld(4, mmps.WithMetrics(m))
		if err != nil {
			t.Fatal(err)
		}
		world := make([]mmps.Transport, len(conns))
		for i, c := range conns {
			world[i] = c
		}
		res, err := Live(world, core.Vector{128, 128, 128, 128}, STEN2, n, iters, Options{FT: &FT{}})
		for _, c := range conns {
			c.Close()
		}
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if len(res.Events) != 0 || len(res.Failed) != 0 {
			t.Fatalf("run %d: fault-free run reported %d recoveries, failed=%v", run, len(res.Events), res.Failed)
		}
		gridsMatch(t, res.Grid, want)
		if re, sent := m.Counter(mmps.MetricRetransmits).Value(), m.Counter(mmps.MetricPacketsSent).Value(); re > sent/100 {
			t.Errorf("run %d: %d retransmits for %d data datagrams", run, re, sent)
		}
	}
}

// TestRepartitionerReducedNetwork: the policy drops dead processors from
// the network and returns a full-size vector over the survivors only.
func TestRepartitionerReducedNetwork(t *testing.T) {
	const n, iters = 96, 30
	net, _, placement := paperVector(t, n, iters, STEN2)
	rp := Repartitioner(net, cost.PaperTable(), STEN2, n, iters, placement)
	alive := []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11} // rank 3 dead
	vec, err := rp(alive)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 12 {
		t.Fatalf("vector over %d ranks, want 12", len(vec))
	}
	if vec[3] != 0 {
		t.Fatalf("dead rank 3 still assigned %d rows: %v", vec[3], vec)
	}
	if vec.Sum() != n {
		t.Fatalf("vector sums to %d, want %d", vec.Sum(), n)
	}
	// Memoized path returns the identical assignment.
	vec2, err := rp([]int{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11})
	if err != nil {
		t.Fatal(err)
	}
	for r := range vec {
		if vec[r] != vec2[r] {
			t.Fatalf("memoized repartition differs: %v vs %v", vec, vec2)
		}
	}
}
