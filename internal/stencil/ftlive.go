package stencil

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/faults"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/repart"
)

// Fault-tolerant live runtime: RunLiveFT executes the distributed stencil
// like RunLive, but survives ranks disappearing mid-computation.
//
// Mechanisms, in the order they engage:
//
//   - Buddy checkpointing. Every CheckpointEvery cycles each row-owner
//     snapshots its block locally and ships a replica to its buddy (the
//     next row-owner, cyclically). Cycle 0 needs no checkpoint: any rank
//     can regenerate any cycle-0 row from the initial grid.
//   - Detection. Ghost-row waits are bounded: a neighbor silent through
//     DetectTimeout × (DetectRetries+1) of wall time draws a NodeFailed
//     verdict instead of hanging the run.
//   - Agreement. The detector floods the verdict; every survivor enters a
//     barrier where all exchange (deadset, newest checkpoint cycles) and
//     restart until the deadsets agree. Ranks that stay silent during the
//     barrier are added to the deadset; a rank that finds itself in the
//     deadset exits (excommunication — its link, not it, may have failed).
//   - Recovery. Survivors agree on the rollback cycle c* (the newest cycle
//     checkpointed by every survivor and replicated for every dead rank),
//     re-partition the domain over the surviving processors, migrate rows
//     from checkpoint holders to their new owners, re-establish buddy
//     replicas at c*, and resume computing from c*. The stencil update is
//     deterministic, so the recovered run is bit-for-bit identical to a
//     fault-free one.
//
// The protocol tolerates any number of failures detected before the
// recovery barrier completes (the deadset merges and the barrier
// restarts). A failure that strikes during the migration/re-checkpoint
// phase itself is not recovered — the standard assumption for buddy
// checkpointing without an external membership service.
const (
	MetricFTFailures   = "ft.failures_detected"   // NodeFailed verdicts issued
	MetricFTRecoveries = "ft.recoveries"          // completed recoveries
	MetricFTRecoveryMs = "ft.recovery_latency_ms" // verdict-to-resume wall time
	MetricFTReplayedC  = "ft.replayed_cycles"     // cycles recomputed after rollback
)

// FTOptions configures RunLiveFT.
type FTOptions struct {
	// Injector supplies crash-at-cycle and compute-slowdown faults (packet
	// faults belong to the transport; see mmps.WithInjector). Nil injects
	// nothing.
	Injector faults.Injector
	// Repartition maps the surviving ranks to a new full-size partition
	// vector (zero rows retire a rank). Nil splits rows evenly over the
	// survivors. It must be deterministic: every survivor calls it with the
	// same arguments and must obtain the same vector.
	Repartition func(alive []int) (core.Vector, error)
	// CheckpointEvery is the checkpoint period in cycles (default 8).
	CheckpointEvery int
	// DetectTimeout is one bounded-receive window (default 200ms).
	DetectTimeout time.Duration
	// DetectRetries is how many extra windows a silent peer is granted
	// before the NodeFailed verdict (default 3).
	DetectRetries int
	// WorkFactor emulates heterogeneity as in RunLive. Nil means uniform.
	WorkFactor []int
	// Metrics, when non-nil, receives the MetricFT* series plus the
	// MetricLive* wall-clock series.
	Metrics *obs.Registry
	// Trace, when non-nil, receives per-cycle spans for Chrome export.
	Trace *obs.Recorder
	// Cycles, when non-nil, receives each rank's wall-clock per-cycle and
	// per-exchange durations as they complete — the drift-monitor
	// subscription. Calls arrive from one goroutine per rank.
	Cycles obs.CycleSink
}

// RecoveryEvent records one completed recovery.
type RecoveryEvent struct {
	// Epoch is the epoch the computation entered by recovering (the first
	// recovery moves the run from epoch 0 to 1).
	Epoch int
	// Dead lists every rank declared dead as of this recovery.
	Dead []int
	// RollbackCycle is c*, the cycle the survivors resumed from.
	RollbackCycle int
	// Vector is the new partition vector over the full rank space.
	Vector core.Vector
	// LatencyMs is the wall time from the recording rank entering recovery
	// to resuming computation.
	LatencyMs float64
}

// FTResult is the outcome of a fault-tolerant live run.
type FTResult struct {
	Elapsed time.Duration
	Grid    [][]float64
	// Recoveries counts completed recoveries.
	Recoveries int
	// Failed lists every rank that left the computation by crash or
	// excommunication (not ranks retired with zero rows).
	Failed []int
	// FinalVector is the partition vector the run finished under.
	FinalVector core.Vector
	Events      []RecoveryEvent
}

// Unrecoverable-run errors.
var (
	ErrQuorumLost     = errors.New("stencil: too few survivors for a recovery quorum")
	errCrashed        = errors.New("stencil: rank crashed (injected)")
	errExcommunicated = errors.New("stencil: rank excommunicated by survivors")
	errRetired        = errors.New("stencil: rank retired with zero rows")
)

// ftShared is the cross-rank state of one run.
type ftShared struct {
	mu     sync.Mutex
	result [][]float64
	events []RecoveryEvent
	failed map[int]bool
	vec    core.Vector
}

// RunLiveFT executes the distributed stencil over real concurrent tasks
// with failure detection and recovery. The transports must outlive the
// call; a crashed rank stops participating but its transport endpoint is
// left to the caller to close.
//
//netpart:wallclock
func RunLiveFT(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, opts FTOptions) (FTResult, error) {
	if err := checkVector(vec, len(world), n, opts.WorkFactor); err != nil {
		return FTResult{}, err
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 8
	}
	if opts.DetectTimeout <= 0 {
		opts.DetectTimeout = 200 * time.Millisecond
	}
	if opts.DetectRetries < 0 {
		opts.DetectRetries = 3
	}
	if opts.Repartition == nil {
		opts.Repartition = evenRepartition(len(world), n)
	}
	sh := &ftShared{
		result: make([][]float64, n),
		failed: map[int]bool{},
		vec:    append(core.Vector(nil), vec...),
	}
	errs, elapsed := runRanks(len(world), opts.Metrics, func(rank int, start time.Time) error {
		return newFTTask(world[rank], vec, v, n, iters, opts, sh, start).run()
	})

	out := FTResult{Elapsed: elapsed}
	for rank, err := range errs {
		switch {
		case err == nil || errors.Is(err, errRetired):
		case errors.Is(err, errCrashed) || errors.Is(err, errExcommunicated):
			sh.mu.Lock()
			sh.failed[rank] = true
			sh.mu.Unlock()
		default:
			return FTResult{}, fmt.Errorf("stencil: rank %d: %w", rank, err)
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, row := range sh.result {
		if row == nil {
			return FTResult{}, fmt.Errorf("stencil: row %d not produced (unrecovered failure)", i)
		}
	}
	out.Grid = sh.result
	out.Events = sh.events
	out.Recoveries = len(sh.events)
	out.FinalVector = append(core.Vector(nil), sh.vec...)
	for r := range sh.failed {
		out.Failed = append(out.Failed, r)
	}
	sort.Ints(out.Failed)
	return out, nil
}

// evenRepartition is the fallback repartitioning policy: rows split as
// evenly as possible over the survivors in rank order.
func evenRepartition(size, n int) func(alive []int) (core.Vector, error) {
	return func(alive []int) (core.Vector, error) {
		if len(alive) == 0 {
			return nil, errors.New("stencil: no survivors to repartition over")
		}
		vec := make(core.Vector, size)
		base, rem := n/len(alive), n%len(alive)
		for i, r := range alive {
			vec[r] = base
			if i < rem {
				vec[r]++
			}
		}
		return vec, nil
	}
}

// Repartitioner returns a Repartition policy that re-runs the paper's
// partitioning algorithm over the network reduced to the surviving
// processors. It is repart.Survivors specialized to the stencil's
// annotations; see that function for the policy's semantics.
func Repartitioner(net *model.Network, costs *cost.Table, v Variant, n, iters int, placement []string) func(alive []int) (core.Vector, error) {
	return repart.Survivors(net, costs, Annotations(n, v, iters), placement)
}

// borderKey addresses one buffered ghost row by its global row index and
// iteration. The stencil update is deterministic, so the content of row g
// at cycle c is the same in every timeline — a border buffered before a
// recovery stays valid after it, whoever owns the row by then.
type borderKey struct{ row, cycle int }

// ckptBlob is one stored checkpoint: a contiguous block of global rows.
type ckptBlob struct {
	first int
	rows  [][]float64
}

// rowsBatch is one buffered migration batch, tagged with the round it was
// sent for (see roundKey).
type rowsBatch struct {
	round uint32
	blob  ckptBlob
}

// ftTask is the per-rank state of the fault-tolerant runtime. One
// goroutine owns it; all communication flows through pump().
type ftTask struct {
	tr      mmps.Transport
	rank    int
	size    int
	n       int
	iters   int
	v       Variant
	opts    FTOptions
	sh      *ftShared
	epochT0 time.Time

	epoch    int
	vec      core.Vector
	own      repart.Owners
	dead     map[int]bool
	iter     int
	executed int // monotonic executed-cycle count (crash injection key)

	rows, off int
	cur       block
	scratch   []float64
	sendBuf   []byte // reused border-frame buffer (one goroutine owns the task)

	lastCkpt int                      // newest own checkpoint cycle (0 = implicit)
	ownCkpt  map[int][][]float64      // cycle -> snapshot of my rows
	ckptIn   map[int]map[int]ckptBlob // src -> cycle -> replicated block

	borders      map[borderKey][]float64
	syncs        map[int]syncInfo
	rowsIn       []rowsBatch // buffered migration batches, all rounds
	rowsRound    uint32
	finished     map[int]bool
	needRecovery bool
	lastHeard    map[int]time.Time // rank -> when a frame last arrived from it
	lastPing     time.Time

	mFail      *obs.Counter
	mRecov     *obs.Counter
	mRecovMs   *obs.Histogram
	mReplay    *obs.Counter
	cycleMs    *obs.Histogram
	exchangeMs *obs.Histogram
}

func newFTTask(tr mmps.Transport, vec core.Vector, v Variant, n, iters int, opts FTOptions, sh *ftShared, t0 time.Time) *ftTask {
	m := opts.Metrics
	return &ftTask{
		tr: tr, rank: tr.Rank(), size: tr.Size(), n: n, iters: iters, v: v,
		opts: opts, sh: sh, epochT0: t0,
		vec: append(core.Vector(nil), vec...), own: repart.NewOwners(vec),
		dead:       map[int]bool{},
		ownCkpt:    map[int][][]float64{},
		ckptIn:     map[int]map[int]ckptBlob{},
		borders:    map[borderKey][]float64{},
		syncs:      map[int]syncInfo{},
		finished:   map[int]bool{},
		lastHeard:  map[int]time.Time{},
		scratch:    make([]float64, n),
		mFail:      m.Counter(MetricFTFailures),
		mRecov:     m.Counter(MetricFTRecoveries),
		mRecovMs:   m.Histogram(MetricFTRecoveryMs),
		mReplay:    m.Counter(MetricFTReplayedC),
		cycleMs:    m.Histogram(MetricLiveCycleMs),
		exchangeMs: m.Histogram(MetricLiveExchangeMs),
	}
}

// participants are the ranks still computing: row-owners not declared dead.
func (t *ftTask) participants() []int {
	var out []int
	for r := 0; r < t.size; r++ {
		if t.vec[r] > 0 && !t.dead[r] {
			out = append(out, r)
		}
	}
	return out
}

func (t *ftTask) deadList() []int {
	out := make([]int, 0, len(t.dead))
	for r := range t.dead {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// buddyOf returns the next row-owner after r cyclically (r itself when r
// is the only row-owner), and wardOf the previous one.
func (t *ftTask) buddyOf(r int) int {
	for i := 1; i <= t.size; i++ {
		c := (r + i) % t.size
		if t.vec[c] > 0 && !t.dead[c] {
			return c
		}
	}
	return r
}

func (t *ftTask) wardOf(r int) int {
	for i := 1; i <= t.size; i++ {
		c := (r - i + t.size*2) % t.size
		if t.vec[c] > 0 && !t.dead[c] {
			return c
		}
	}
	return r
}

func (t *ftTask) detectBudget() time.Duration {
	return t.opts.DetectTimeout * time.Duration(t.opts.DetectRetries+1)
}

func (t *ftTask) pingInterval() time.Duration {
	p := t.opts.DetectTimeout / 2
	if p < time.Millisecond {
		p = time.Millisecond
	}
	return p
}

// keepalive broadcasts a liveness ping to the other participants, rate
// limited to the ping interval. Every blocking wait loop calls it: a rank
// stalled on its own silent neighbor must still prove it is alive, or the
// whole chain of waiters behind it would expire together and verdict each
// other in a cascade.
func (t *ftTask) keepalive() {
	if time.Since(t.lastPing) < t.pingInterval() {
		return
	}
	t.lastPing = time.Now()
	for _, r := range t.participants() {
		if r != t.rank {
			t.send(r, ftPing, 0, nil)
		}
	}
}

// silentFor reports how long rank r has been silent, counting from `since`
// or r's last received frame, whichever is later. Verdicts key off
// silence, never off lack of progress: a live rank blocked behind a dead
// one makes no progress but keeps pinging.
func (t *ftTask) silentFor(r int, since time.Time) time.Duration {
	if lh, ok := t.lastHeard[r]; ok && lh.After(since) {
		since = lh
	}
	return time.Since(since)
}

// send frames and transmits, ignoring transport errors: an undeliverable
// peer surfaces through detection (theirs or ours), not through the send
// path.
func (t *ftTask) send(dst int, typ byte, cycle int, payload []byte) {
	_ = t.tr.Send(dst, ftFrame(typ, t.epoch, cycle, payload))
}

// roundKey identifies one migration round: recoveries with different
// deadsets must not mix their row batches even within an epoch (the
// barrier can restart after migration began).
func roundKey(dead []int) uint32 {
	h := fnv.New32a()
	var b [4]byte
	for _, d := range dead {
		b[0], b[1], b[2], b[3] = byte(d>>24), byte(d>>16), byte(d>>8), byte(d)
		h.Write(b[:])
	}
	return h.Sum32()
}

// pump receives and dispatches at most one frame, waiting up to d.
// Returns false on timeout.
//
// Dispatch is deliberately lenient: ranks cross the recovery barrier at
// different moments, so frames for the *next* view (migration rows, fresh
// buddy checkpoints, post-rollback borders) routinely arrive while the
// receiver is still in its own barrier. Discarding them at receive time
// would force the sender to be re-verdicted later, so everything
// content-addressed is buffered and validated where it is used instead:
// borders are keyed by (global row, cycle) and checkpoints by (src, cycle)
// — both timeline-independent thanks to the deterministic update — and
// migration batches carry their round key. Deadset-bearing frames
// (FAIL/SYNC) are monotone and always merged.
func (t *ftTask) pump(d time.Duration) (bool, error) {
	src, buf, err := t.tr.RecvAny(d)
	if err != nil {
		if errors.Is(err, mmps.ErrTimeout) {
			return false, nil
		}
		return false, err
	}
	err = t.dispatch(src, buf)
	// Every dispatch path copies what it keeps out of the frame, so the
	// delivered buffer can rejoin the transport's free list here.
	mmps.Recycle(t.tr, buf)
	return true, err
}

// dispatch routes one received frame; see pump for the buffering rules.
func (t *ftTask) dispatch(src int, buf []byte) error {
	typ, epoch, cycle, payload, err := ftParse(buf)
	if err != nil {
		return err
	}
	t.lastHeard[src] = time.Now()
	switch typ {
	case ftBorder:
		g, _, row, err := parseHaloFrame(payload, nil)
		if err != nil || len(row) != t.n {
			return fmt.Errorf("stencil: bad ghost row from %d", src)
		}
		t.borders[borderKey{g, cycle}] = row
	case ftCkpt:
		first, rows, err := repart.DecodeRows(payload, t.n)
		if err != nil {
			return err
		}
		if t.ckptIn[src] == nil {
			t.ckptIn[src] = map[int]ckptBlob{}
		}
		t.ckptIn[src][cycle] = ckptBlob{first: first, rows: rows}
	case ftFail, ftSync:
		var si syncInfo
		if typ == ftSync {
			si, err = decodeSyncInfo(payload)
			if err != nil {
				return err
			}
			t.syncs[src] = si
		} else {
			si.dead, _, err = decodeDeadset(payload)
			if err != nil {
				return err
			}
		}
		for _, r := range si.dead {
			if r >= 0 && r < t.size && !t.dead[r] {
				t.dead[r] = true
			}
		}
		// Recovery is needed only when a dead rank still owns rows under
		// our vector. A SYNC whose deadset we already fully retired is a
		// straggler from a barrier we completed — its sender converges on
		// the syncs everyone flooded back then; rejoining here would run a
		// gratuitous second recovery.
		for _, r := range si.dead {
			if t.vec[r] > 0 {
				t.needRecovery = true
			}
		}
	case ftRows:
		first, rows, err := repart.DecodeRows(payload, t.n)
		if err != nil {
			return err
		}
		t.rowsIn = append(t.rowsIn, rowsBatch{round: uint32(cycle), blob: ckptBlob{first: first, rows: rows}})
	case ftFinish:
		// The one frame where dropping beats buffering: a stale FINISH from
		// before a rollback must not count, and a live finisher re-floods
		// under the current epoch anyway.
		if epoch == t.epoch {
			t.finished[src] = true
		}
	}
	return nil
}

// verdict declares src dead after a silent detection budget and floods the
// verdict to the other participants.
func (t *ftTask) verdict(src int) {
	if t.dead[src] {
		return
	}
	t.dead[src] = true
	t.needRecovery = true
	t.mFail.Inc()
	payload := encodeDeadset(t.deadList())
	for _, r := range t.participants() {
		if r != t.rank {
			t.send(r, ftFail, 0, payload)
		}
	}
}

// errNeedRecovery is an internal control-flow signal: unwind to the main
// loop and run recovery.
var errNeedRecovery = errors.New("stencil: recovery required")

// sendBorder ships one ghost row: the halo frame (halo.go) nested in the
// epoch/cycle envelope, built in the task's reused send buffer so the
// per-cycle exchange allocates nothing. Transport errors are swallowed
// like t.send's: an undeliverable peer surfaces through detection.
//
//netpart:hotpath
func (t *ftTask) sendBorder(dst, g int, row []float64) {
	t.sendBuf = appendFTFrame(t.sendBuf[:0], ftBorder, t.epoch, t.iter)
	t.sendBuf = appendHaloFrame(t.sendBuf, g, t.iter, row)
	_ = t.tr.Send(dst, t.sendBuf)
}

// validCkpt returns src's replicated block at cycle, if one is buffered
// that exactly covers src's block under the current vector. Shape is
// checked at read time because pump buffers blobs from any view.
func (t *ftTask) validCkpt(src, cycle int) (ckptBlob, bool) {
	blk, ok := t.ckptIn[src][cycle]
	if !ok || blk.first != t.own.First(src) || len(blk.rows) != t.own.Count(src) {
		return ckptBlob{}, false
	}
	return blk, true
}

// awaitBorder blocks until the ghost row (g, cycle) arrives from its
// owner, pumping all other traffic. The owner is verdicted dead only after
// a full detection budget of *silence* — iteration skew means a live owner
// can lag many cycles behind (blocked on its own neighbor), but its
// keepalives keep arriving.
func (t *ftTask) awaitBorder(owner, g, cycle int, into []float64) error {
	start := time.Now()
	for {
		if t.needRecovery {
			return errNeedRecovery
		}
		key := borderKey{g, cycle}
		if row, ok := t.borders[key]; ok {
			copy(into, row)
			delete(t.borders, key)
			return nil
		}
		if t.silentFor(owner, start) > t.detectBudget() {
			t.verdict(owner)
			return errNeedRecovery
		}
		t.keepalive()
		if _, err := t.pump(t.pingInterval()); err != nil {
			return err
		}
	}
}

// run is the rank's whole life: compute, detect, recover, finish.
func (t *ftTask) run() error {
	t.rows, t.off = t.own.Count(t.rank), t.own.First(t.rank)
	t.cur = newBlock(t.rows, t.n)
	if t.off == 0 {
		initialRow(t.cur.row(1), 0)
	}
	for {
		err := t.computeLoop()
		done := false
		if err == nil {
			done, err = t.linger()
		}
		if errors.Is(err, errNeedRecovery) {
			err = t.recover()
		}
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	t.sh.mu.Lock()
	for i := 0; i < t.rows; i++ {
		t.sh.result[t.off+i] = append([]float64(nil), t.cur.row(i+1)...)
	}
	t.sh.mu.Unlock()
	return nil
}

// neighbors under the current vector: adjacent row-owners, not adjacent
// ranks (retired ranks own nothing and are skipped).
func (t *ftTask) northSouth() (north, south int, hasN, hasS bool) {
	if t.off > 0 {
		north, hasN = t.own.OwnerOf(t.off-1), true
	}
	if t.off+t.rows < t.n {
		south, hasS = t.own.OwnerOf(t.off+t.rows), true
	}
	return
}

func (t *ftTask) computeRows(lo, hi int) {
	factor := 1.0
	if t.opts.Injector != nil {
		factor = t.opts.Injector.Slowdown(t.rank, t.iter)
	}
	if t.opts.WorkFactor != nil {
		factor *= float64(t.opts.WorkFactor[t.rank])
	}
	t.cur.sweep(t.off, t.n, lo, hi, loadReps(factor), t.scratch, nil)
}

// computeLoop runs iterations until completion or a recovery signal. It is
// the one cycle loop outside the driver (driver.go): every receive here is a
// bounded, pump-driven wait that can end in a failure verdict and a rollback,
// which the driver's blocking link cannot express. The exchange order and
// the in-place row update (block.sweep) are the driver's; a cycle abandoned
// between its spans leaves the block half updated, and recovery never reads
// it — it rebuilds from checkpoints.
func (t *ftTask) computeLoop() error {
	for t.iter < t.iters {
		if t.needRecovery {
			return errNeedRecovery
		}
		if inj := t.opts.Injector; inj != nil && inj.CrashCycle(t.rank) == t.executed {
			return errCrashed
		}
		if t.iter > 0 && t.iter%t.opts.CheckpointEvery == 0 && t.iter != t.lastCkpt {
			t.checkpoint(t.iter)
		}
		cycleStart := time.Now()
		north, south, hasN, hasS := t.northSouth()
		if hasN {
			t.sendBorder(north, t.off, t.cur.row(1))
		}
		if hasS {
			t.sendBorder(south, t.off+t.rows-1, t.cur.row(t.rows))
		}
		// The exchange time covers the sends and the border waits, not
		// STEN-2's interior update between them, as in the driver.
		exchange := time.Since(cycleStart)
		await := func() error {
			start := time.Now()
			if hasN {
				if err := t.awaitBorder(north, t.off-1, t.iter, t.cur.row(0)); err != nil {
					return err
				}
			}
			if hasS {
				if err := t.awaitBorder(south, t.off+t.rows, t.iter, t.cur.row(t.rows+1)); err != nil {
					return err
				}
			}
			exchange += time.Since(start)
			return nil
		}
		switch t.v {
		case STEN1:
			if err := await(); err != nil {
				return err
			}
			t.computeRows(1, t.rows)
		case STEN2:
			if t.rows > 2 {
				t.computeRows(2, t.rows-1)
			}
			if err := await(); err != nil {
				return err
			}
			t.computeRows(1, 1)
			if t.rows > 1 {
				t.computeRows(t.rows, t.rows)
			}
		}
		t.cur.flip()
		cycleMs := float64(time.Since(cycleStart)) / float64(time.Millisecond)
		exchangeMs := float64(exchange) / float64(time.Millisecond)
		t.cycleMs.Observe(cycleMs)
		t.exchangeMs.Observe(exchangeMs)
		if t.opts.Cycles != nil {
			t.opts.Cycles.OnExchange(t.rank, t.iter, exchangeMs)
			t.opts.Cycles.OnCycle(t.rank, t.iter, cycleMs)
		}
		if t.opts.Trace != nil {
			startMs := float64(cycleStart.Sub(t.epochT0)) / float64(time.Millisecond)
			t.opts.Trace.Span("cycle", t.rank, startMs, cycleMs, map[string]any{"iter": t.iter, "epoch": t.epoch})
		}
		t.iter++
		t.executed++
	}
	return nil
}

// checkpoint snapshots the local block and ships the replica to the buddy.
func (t *ftTask) checkpoint(cycle int) {
	snap := make([][]float64, t.rows)
	for i := 0; i < t.rows; i++ {
		snap[i] = append([]float64(nil), t.cur.row(i+1)...)
	}
	t.ownCkpt[cycle] = snap
	t.lastCkpt = cycle
	if b := t.buddyOf(t.rank); b != t.rank {
		t.send(b, ftCkpt, cycle, repart.EncodeRows(t.off, snap))
	}
}

// linger is the completion protocol: announce FINISH, then stay responsive
// (serving checkpoints and joining recoveries) until every participant has
// finished. Returns done=false when a recovery rolled the rank back into
// the compute loop.
func (t *ftTask) linger() (bool, error) {
	payload := []byte{}
	for _, r := range t.participants() {
		if r != t.rank {
			t.send(r, ftFinish, 0, payload)
		}
	}
	t.finished[t.rank] = true
	start := time.Now()
	announced := time.Now()
	for {
		if t.needRecovery {
			return false, errNeedRecovery
		}
		waiting := -1
		for _, r := range t.participants() {
			if !t.finished[r] {
				waiting = r
				break
			}
		}
		if waiting < 0 {
			return true, nil
		}
		if t.silentFor(waiting, start) > t.detectBudget()*2 {
			t.verdict(waiting)
			return false, errNeedRecovery
		}
		// Re-announce periodically: a FINISH sent while a peer was still
		// inside its recovery commit was epoch-gated away on its side.
		if time.Since(announced) > t.detectBudget() {
			announced = time.Now()
			for _, r := range t.participants() {
				if r != t.rank && !t.finished[r] {
					t.send(r, ftFinish, 0, payload)
				}
			}
		}
		t.keepalive()
		if _, err := t.pump(t.pingInterval()); err != nil {
			return false, err
		}
	}
}

// latestWard returns the ward whose replicas this rank holds and the
// newest replicated cycle (ward -1 when none are held). Replicas of a
// dead rank take priority: that is the holding the recovery barrier needs
// to hear about (wardOf skips dead ranks, so it cannot name them).
func (t *ftTask) latestWard() (int, int) {
	report := func(src int) (int, int) {
		latest := 0
		for c := range t.ckptIn[src] {
			if _, ok := t.validCkpt(src, c); ok && c > latest {
				latest = c
			}
		}
		if latest == 0 {
			return -1, 0
		}
		return src, latest
	}
	for _, d := range t.deadList() {
		if t.vec[d] > 0 && len(t.ckptIn[d]) > 0 {
			if src, latest := report(d); src >= 0 {
				return src, latest
			}
		}
	}
	if w := t.wardOf(t.rank); w != t.rank {
		return report(w)
	}
	return -1, 0
}

// recover drives the failure-agreement barrier, rollback, repartition,
// migration, and re-checkpointing. On success the task state is ready to
// resume computing at the rollback cycle under the new vector.
//
// The barrier's traffic depends on which ranks died and on pump timing
// (RecvAny-driven), so the protocol checker verifies it through the
// builtin ft-recovery model over each survivor set rather than by
// extraction.
//
//netpart:lockstep model=ft-recovery
func (t *ftTask) recover() error {
	started := time.Now()
	preIter := t.iter
	for {
		// The barrier restarts whenever the deadset grows; deadList is the
		// set this attempt is built on.
		if t.dead[t.rank] {
			return errExcommunicated
		}
		dl := t.deadList()
		parts := t.participants()
		if len(parts)*2 <= t.size {
			return fmt.Errorf("%w: %d of %d", ErrQuorumLost, len(parts), t.size)
		}
		ward, wardLatest := t.latestWard()
		si := syncInfo{dead: dl, ownLatest: t.lastCkpt, ward: ward, wardLatest: wardLatest}
		t.syncs[t.rank] = si
		payload := encodeSyncInfo(si)
		for _, r := range parts {
			if r != t.rank {
				t.send(r, ftSync, 0, payload)
			}
		}
		ok, err := t.collectSyncs(dl, parts)
		if err != nil {
			return err
		}
		if !ok {
			continue // deadset grew: restart the barrier
		}
		// The epoch of the new view is the agreed deadset size: monotone,
		// and — unlike a local counter — identical on every rank that
		// crossed this barrier, however many times its own barrier loop
		// restarted along the way.
		t.epoch = len(dl)
		if err := t.applyRecovery(dl, parts); err != nil {
			if errors.Is(err, errNeedRecovery) {
				continue // a further failure surfaced mid-migration
			}
			return err
		}
		break
	}
	// Re-derive rather than blindly clear: a FAIL merged during the last
	// migration pumps must put us straight back into recovery.
	t.needRecovery = false
	for r := range t.dead {
		if t.vec[r] > 0 {
			t.needRecovery = true
		}
	}
	latency := float64(time.Since(started)) / float64(time.Millisecond)
	t.mRecovMs.Observe(latency)
	if replay := preIter - t.iter; replay > 0 {
		t.mReplay.Add(int64(replay))
	}
	// The lowest surviving rank records the event for the whole run.
	parts := t.participants()
	if len(parts) > 0 && parts[0] == t.rank {
		t.mRecov.Inc()
		t.sh.mu.Lock()
		t.sh.events = append(t.sh.events, RecoveryEvent{
			Epoch:         t.epoch,
			Dead:          t.deadList(),
			RollbackCycle: t.iter,
			Vector:        append(core.Vector(nil), t.vec...),
			LatencyMs:     latency,
		})
		t.sh.vec = append(core.Vector(nil), t.vec...)
		t.sh.mu.Unlock()
	}
	return nil
}

// collectSyncs waits until every participant contributed a sync whose
// deadset matches dl. Returns ok=false when the deadset grew (restart).
// A participant that has not matched yet is verdicted only once it has
// been silent for a doubled detection budget — one that is merely behind
// (still computing, or flooding a smaller deadset) keeps itself alive with
// pings and converges via the monotone FAIL/SYNC merges.
func (t *ftTask) collectSyncs(dl []int, parts []int) (bool, error) {
	start := time.Now()
	budget := t.detectBudget() * 2
	for {
		if !sameInts(t.deadList(), dl) {
			return false, nil
		}
		matched := true
		for _, r := range parts {
			if si, ok := t.syncs[r]; !ok || !sameInts(si.dead, dl) {
				matched = false
				if t.silentFor(r, start) > budget {
					t.verdict(r)
					return false, nil
				}
			}
		}
		if matched {
			return true, nil
		}
		t.keepalive()
		if _, err := t.pump(t.pingInterval()); err != nil {
			return false, err
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyRecovery performs rollback + repartition + migration + fresh
// checkpoints for one agreed barrier. A verdict or newly flooded failure
// while waiting for migration rows returns errNeedRecovery so the caller
// restarts the barrier.
func (t *ftTask) applyRecovery(dl []int, parts []int) error {
	// c*: the newest cycle every survivor checkpointed and every dead
	// rank's buddy replicated. Cycle 0 is always available (regenerated
	// from the initial grid).
	cstar := t.iters
	for _, r := range parts {
		if l := t.syncs[r].ownLatest; l < cstar {
			cstar = l
		}
	}
	for _, d := range dl {
		if t.vec[d] == 0 {
			continue // already retired before dying; owns no rows
		}
		replica := 0
		for _, r := range parts {
			if t.syncs[r].ward == d && t.syncs[r].wardLatest > replica {
				replica = t.syncs[r].wardLatest
			}
		}
		if replica < cstar {
			cstar = replica
		}
	}

	newVec, err := t.opts.Repartition(parts)
	if err != nil {
		return err
	}
	if len(newVec) != t.size || newVec.Sum() != t.n {
		return fmt.Errorf("stencil: repartition returned a bad vector %v", newVec)
	}
	for r := 0; r < t.size; r++ {
		if newVec[r] > 0 && (t.dead[r] || t.vec[r] == 0) {
			return fmt.Errorf("stencil: repartition assigned rows to non-survivor %d", r)
		}
	}

	oldOwn := t.own
	oldOff, oldRows := t.off, t.rows
	newOwn := repart.NewOwners(newVec)
	newRows, newOff := newOwn.Count(t.rank), newOwn.First(t.rank)
	round := roundKey(dl)

	// server(d) is the lowest survivor holding dead rank d's replicas.
	server := map[int]int{}
	for _, d := range dl {
		for _, r := range parts {
			if t.syncs[r].ward == d {
				server[d] = r
				break
			}
		}
	}
	// holder(g): who sends global row g's cycle-c* data.
	holder := func(g int) int {
		o := oldOwn.OwnerOf(g)
		if !t.dead[o] {
			return o
		}
		return server[o] // present whenever cstar > 0
	}

	if cstar > 0 {
		// Outgoing: my checkpointed block, and my dead ward's replica if I
		// am its server, sent span-by-span to the new owners.
		myBlocks := []ckptBlob{{first: oldOff, rows: t.ownCkpt[cstar]}}
		if w, _ := t.latestWard(); w >= 0 && t.dead[w] && server[w] == t.rank {
			blk, ok := t.validCkpt(w, cstar)
			if !ok {
				return fmt.Errorf("stencil: rank %d serving ward %d without a cycle-%d replica", t.rank, w, cstar)
			}
			myBlocks = append(myBlocks, blk)
		}
		for _, blk := range myBlocks {
			if blk.rows == nil {
				return fmt.Errorf("stencil: rank %d missing checkpoint at cycle %d", t.rank, cstar)
			}
			err := repart.ForEachSpan(blk.first, len(blk.rows), newOwn, t.rank,
				func(dst, spanFirst, spanCount int) error {
					lo := spanFirst - blk.first
					t.send(dst, ftRows, int(round), repart.EncodeRows(spanFirst, blk.rows[lo:lo+spanCount]))
					return nil
				})
			if err != nil {
				return err
			}
		}
	}

	// Build the new block: regenerate (c*=0), keep local rows, then absorb
	// incoming batches until every expected row arrived.
	ncur := newBlock(newRows, t.n)
	have := make([]bool, newRows)
	pending := 0
	for g := newOff; g < newOff+newRows; g++ {
		switch {
		case cstar == 0:
			initialRow(ncur.row(g-newOff+1), g)
			have[g-newOff] = true
		case holder(g) == t.rank:
			if g >= oldOff && g < oldOff+oldRows {
				copy(ncur.row(g-newOff+1), t.ownCkpt[cstar][g-oldOff])
			} else {
				blk, ok := t.validCkpt(oldOwn.OwnerOf(g), cstar)
				if !ok {
					return fmt.Errorf("stencil: rank %d lost the cycle-%d replica of row %d", t.rank, cstar, g)
				}
				copy(ncur.row(g-newOff+1), blk.rows[g-blk.first])
			}
			have[g-newOff] = true
		default:
			pending++
		}
	}
	t.rowsRound = round
	absorb := func() {
		kept := t.rowsIn[:0]
		for _, b := range t.rowsIn {
			if b.round != round {
				kept = append(kept, b) // another round's batch; not ours to consume
				continue
			}
			for i, row := range b.blob.rows {
				g := b.blob.first + i
				if g >= newOff && g < newOff+newRows && !have[g-newOff] {
					copy(ncur.row(g-newOff+1), row)
					have[g-newOff] = true
					pending--
				}
			}
		}
		t.rowsIn = kept
	}
	start := time.Now()
	for {
		absorb()
		if pending == 0 {
			break
		}
		if !sameInts(t.deadList(), dl) {
			t.rowsRound = 0
			return errNeedRecovery
		}
		// A holder that went silent mid-migration draws a verdict; one that
		// is alive but still in its own barrier keeps pinging.
		stalled := -1
		for g := newOff; g < newOff+newRows; g++ {
			if h := holder(g); !have[g-newOff] && t.silentFor(h, start) > t.detectBudget()*2 {
				stalled = h
				break
			}
		}
		if stalled >= 0 {
			t.verdict(stalled)
			t.rowsRound = 0
			return errNeedRecovery
		}
		t.keepalive()
		if _, err := t.pump(t.pingInterval()); err != nil {
			return err
		}
	}
	t.rowsRound = 0

	// Commit the new view. Buffered checkpoints (ckptIn) deliberately
	// survive the commit: a ward that crossed the barrier first may already
	// have sent its fresh cycle-c* replica, and stale blobs are inert —
	// validCkpt re-checks their shape against the new vector at every read.
	t.vec = newVec
	t.own = newOwn
	t.rows, t.off = newRows, newOff
	t.cur = ncur
	t.iter = cstar
	// t.borders intentionally survives too: a neighbor that committed
	// first may already have sent post-rollback ghost rows, and border
	// content is timeline-independent (keyed by global row and cycle).
	t.syncs = map[int]syncInfo{}
	t.finished = map[int]bool{}
	t.ownCkpt = map[int][][]float64{}
	t.lastCkpt = 0

	if t.rows == 0 {
		return errRetired
	}
	// Re-establish buddy replicas at c* under the new vector before
	// resuming, so a later failure can roll back to c* again. Cycle 0
	// stays implicit.
	if cstar > 0 {
		t.checkpoint(cstar)
		ward := t.wardOf(t.rank)
		if ward != t.rank {
			start := time.Now()
			for {
				if _, ok := t.validCkpt(ward, cstar); ok {
					break
				}
				if !sameInts(t.deadList(), dl) {
					return errNeedRecovery
				}
				if t.silentFor(ward, start) > t.detectBudget()*2 {
					t.verdict(ward)
					return errNeedRecovery
				}
				t.keepalive()
				if _, err := t.pump(t.pingInterval()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
