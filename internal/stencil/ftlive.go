package stencil

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
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

// Fault-tolerant live runtime: Live with Options.FT executes the distributed
// stencil like a plain Live run, but survives ranks disappearing
// mid-computation.
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

// Unrecoverable-run errors.
var (
	ErrQuorumLost     = errors.New("stencil: too few survivors for a recovery quorum")
	errCrashed        = errors.New("stencil: rank crashed (injected)")
	errExcommunicated = errors.New("stencil: rank excommunicated by survivors")
	errRetired        = errors.New("stencil: rank retired with zero rows")
)

// ftShared is the cross-rank state of one run beside its job: the recovery
// log and, under mu with it, the job's result rows and final vector.
type ftShared struct {
	mu     sync.Mutex
	events []RecoveryEvent
}

// runFT is Live under opts.FT: the ranks run the job's cycles with failure
// detection and recovery. The transports must outlive the call; a crashed
// rank stops participating but its transport endpoint is left to the caller
// to close.
func (j *job) runFT(world []mmps.Transport, opts Options) (Result, error) {
	sh := &ftShared{}
	errs, elapsed := runRanks(len(world), opts.Metrics, func(rank int, start time.Time) error {
		return newFTTask(world[rank], j, opts, sh, start).run()
	})
	var failed []int
	for rank, err := range errs {
		switch {
		case errors.Is(err, errRetired):
		case errors.Is(err, errCrashed) || errors.Is(err, errExcommunicated):
			failed = append(failed, rank)
		default:
			continue
		}
		errs[rank] = nil
	}
	grid, err := j.finish(errs, nil)
	if err != nil {
		return Result{}, err
	}
	j.out.Iterations = j.iters
	return Result{Elapsed: elapsed, Grid: grid, RunStats: j.out, Failed: failed, Events: sh.events}, nil
}

// withDefaults fills in the documented default of every option left at its
// zero value, for a run of size ranks over n rows.
func (o FT) withDefaults(size, n int) FT {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 8
	}
	if o.DetectTimeout <= 0 {
		o.DetectTimeout = 200 * time.Millisecond
	}
	if o.DetectRetries <= 0 {
		o.DetectRetries = 3
	}
	if o.Repartition == nil {
		o.Repartition = evenRepartition(size, n)
	}
	return o
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
	tr    mmps.Transport
	rank  int
	size  int
	n     int
	iters int
	ft    FT
	inj   faults.Injector
	sh    *ftShared

	epoch    int
	vec      core.Vector
	own      repart.Owners
	dead     map[int]bool
	executed int // monotonic executed-cycle count (crash injection key)

	// s is the rank's share of the grid under the current vector, swept by
	// the driver's cycles (driver.go) through link; s.iter is the next cycle.
	s    *rankState
	link *ftLink

	lastCkpt int                      // newest own checkpoint cycle (0 = implicit)
	ownCkpt  map[int][][]float64      // cycle -> snapshot of my rows
	ckptIn   map[int]map[int]ckptBlob // src -> cycle -> replicated block

	borders      map[borderKey][]float64
	syncs        map[int]syncInfo
	rowsIn       []rowsBatch // buffered migration batches, all rounds
	finished     map[int]bool
	needRecovery bool
	lastHeard    map[int]time.Time // rank -> when a frame last arrived from it
	lastPing     time.Time
	waiting      []int // wait's reused list of the peers it hangs on

	mFail    *obs.Counter
	mRecov   *obs.Counter
	mRecovMs *obs.Histogram
	mReplay  *obs.Counter
}

func newFTTask(tr mmps.Transport, j *job, opts Options, sh *ftShared, t0 time.Time) *ftTask {
	m := opts.Metrics
	t := &ftTask{
		tr: tr, rank: tr.Rank(), size: tr.Size(), n: j.n, iters: j.iters,
		ft: opts.FT.withDefaults(tr.Size(), j.n), inj: opts.Injector, sh: sh,
		dead:      map[int]bool{},
		ownCkpt:   map[int][][]float64{},
		ckptIn:    map[int]map[int]ckptBlob{},
		borders:   map[borderKey][]float64{},
		syncs:     map[int]syncInfo{},
		finished:  map[int]bool{},
		lastHeard: map[int]time.Time{},
		mFail:     m.Counter(MetricFTFailures),
		mRecov:    m.Counter(MetricFTRecoveries),
		mRecovMs:  m.Histogram(MetricFTRecoveryMs),
		mReplay:   m.Counter(MetricFTReplayedC),
	}
	t.link = &ftLink{t: t, liveLink: newLiveLink(tr, t0, j.n, ftHeaderLen)}
	t.s = j.start(t.link, t.rank)
	t.view(append(core.Vector(nil), j.vec...), repart.NewOwners(j.vec), t.s.cur)
	return t
}

// view makes vec the task's partition: its owner map, the link's rank
// space and the rank's block cur, which holds this rank's rows under vec.
func (t *ftTask) view(vec core.Vector, own repart.Owners, cur block) {
	t.vec, t.own = vec, own
	t.s.rows, t.s.off, t.s.cur = own.Count(t.rank), own.First(t.rank), cur
	l := t.link
	l.owners = l.owners[:0]
	for r, rows := range vec {
		if r == t.rank {
			l.pos = len(l.owners)
		}
		if rows > 0 {
			l.owners = append(l.owners, r)
		}
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
	return t.ft.DetectTimeout * time.Duration(t.ft.DetectRetries+1)
}

func (t *ftTask) pingInterval() time.Duration {
	p := t.ft.DetectTimeout / 2
	if p < time.Millisecond {
		p = time.Millisecond
	}
	return p
}

// keepalive broadcasts a liveness ping to the other participants, rate
// limited to the ping interval. Every round of a blocking wait calls it: a rank
// stalled on its own silent neighbor must still prove it is alive, or the
// whole chain of waiters behind it would expire together and verdict each
// other in a cascade.
func (t *ftTask) keepalive() {
	if time.Since(t.lastPing) < t.pingInterval() {
		return
	}
	t.lastPing = time.Now()
	t.broadcast(ftPing, nil)
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

// broadcast sends one frame to every other participant.
func (t *ftTask) broadcast(typ byte, payload []byte) {
	for _, r := range t.participants() {
		if r != t.rank {
			t.send(r, typ, 0, payload)
		}
	}
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
func (t *ftTask) pump(d time.Duration) error {
	src, buf, err := t.tr.RecvAny(d)
	if errors.Is(err, mmps.ErrTimeout) {
		return nil
	}
	if err != nil {
		return err
	}
	err = t.dispatch(src, buf)
	// Every dispatch path copies what it keeps out of the frame, so the
	// delivered buffer can rejoin the transport's free list here.
	mmps.Recycle(t.tr, buf)
	return err
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
			if r < 0 || r >= t.size {
				continue // no such rank: a corrupt or foreign frame
			}
			t.dead[r] = true
			// Recovery is needed only when a dead rank still owns rows under
			// our vector. A SYNC whose deadset we already fully retired is a
			// straggler from a barrier we completed — its sender converges on
			// the syncs everyone flooded back then; rejoining here would run a
			// gratuitous second recovery.
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
	t.broadcast(ftFail, encodeDeadset(t.deadList()))
}

// errNeedRecovery is an internal control-flow signal: unwind to the main
// loop and run recovery.
var errNeedRecovery = errors.New("stencil: recovery required")

// wait is the runtime's one blocking loop. Each round it gives up with
// errNeedRecovery once stale reports that the view it serves is gone, and
// returns once ready reports done. Otherwise ready lists the peers the wait
// still hangs on, and the first of them silent through budget since the
// wait began is verdicted (errNeedRecovery again). Until then the rank
// keeps its keepalives flowing and receives one frame per round.
func (t *ftTask) wait(budget time.Duration, stale func() bool, ready func(waiting []int) (bool, []int)) error {
	start := time.Now()
	for {
		if stale() {
			return errNeedRecovery
		}
		done, waiting := ready(t.waiting[:0])
		if done {
			return nil
		}
		t.waiting = waiting
		for _, r := range waiting {
			if t.silentFor(r, start) > budget {
				t.verdict(r)
				return errNeedRecovery
			}
		}
		t.keepalive()
		if err := t.pump(t.pingInterval()); err != nil {
			return err
		}
	}
}

// recoveryDue is the staleness of a wait outside recovery: a verdict or a
// flooded failure has made the current view unusable.
func (t *ftTask) recoveryDue() bool { return t.needRecovery }

// deadsetGrew is the staleness of a wait inside the recovery round agreed
// on deadset dl: a further failure restarts the barrier.
func (t *ftTask) deadsetGrew(dl []int) func() bool {
	return func() bool { return !slices.Equal(t.deadList(), dl) }
}

// ftLink is the driver's link for the fault-tolerant runtime: the live
// link's clock and load emulation, over the task's transport, with every
// border in the FT envelope and every receive a bounded wait. Its ranks are
// positions among the row owners of the task's current view, which keeps
// the driver's neighbours at rank±1 when a retired rank (no rows) sits
// between two owners; callbacks that name a rank (the job's load, the
// driver's report) see the physical one.
type ftLink struct {
	liveLink
	t      *ftTask
	owners []int // physical ranks that own rows under the current vector, in row order
	pos    int   // this rank's index in owners
}

func (l *ftLink) Rank() int { return l.pos }
func (l *ftLink) Size() int { return len(l.owners) }

// Send ships one ghost row: the halo frame (halo.go) nested in the
// epoch/cycle envelope, built in the link's reused send buffer so the
// per-cycle exchange allocates nothing. Transport errors are swallowed
// like ftTask.send's: an undeliverable peer surfaces through detection.
//
//netpart:hotpath
func (l *ftLink) Send(dst int, h halo) error {
	l.sendBuf = appendFTFrame(l.sendBuf[:0], ftBorder, l.t.epoch, h.cycle)
	l.sendBuf = appendHaloFrame(l.sendBuf, h.row, h.cycle, h.vals)
	_ = l.tr.Send(l.owners[dst], l.sendBuf)
	return nil
}

// Recv waits for the ghost row the owner at position src owes this cycle,
// which pump buffers under its (global row, cycle) key in whatever order
// frames arrive. The owner is verdicted dead only after a full detection
// budget of *silence* — iteration skew means a live owner can lag many
// cycles behind (blocked on its own neighbour), but its keepalives keep
// arriving. A verdict, or a recovery another rank started, returns
// errNeedRecovery out through the driver. The row pump buffered is copied
// into into.
func (l *ftLink) Recv(src int, into []float64) (halo, error) {
	t, s := l.t, l.t.s
	key := borderKey{s.off + s.rows, s.iter}
	if src < l.pos {
		key.row = s.off - 1
	}
	owner := l.owners[src]
	var vals []float64
	err := t.wait(t.detectBudget(), t.recoveryDue, func(waiting []int) (bool, []int) {
		row, ok := t.borders[key]
		vals = row
		delete(t.borders, key)
		return ok, append(waiting, owner)
	})
	copy(into, vals)
	return halo{key.row, key.cycle, vals}, err
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

// run is the rank's whole life: compute, detect, recover, finish.
func (t *ftTask) run() error {
	for {
		err := t.advance()
		if err == nil {
			if err = t.linger(); err == nil {
				break
			}
		}
		if errors.Is(err, errNeedRecovery) {
			err = t.recover()
		}
		if err != nil {
			return err
		}
	}
	t.sh.mu.Lock()
	t.s.publish()
	t.sh.mu.Unlock()
	return nil
}

// advance runs the driver's cycles until the last iteration or a recovery
// signal. It breaks them at every checkpoint cycle and at the injected crash
// cycle, so that both fire where a cycle begins. A cycle abandoned between
// its spans leaves the block half updated; recovery never reads it — it
// rebuilds from checkpoints.
func (t *ftTask) advance() error {
	crash := -1
	if inj := t.inj; inj != nil {
		crash = inj.CrashCycle(t.rank)
	}
	every, s := t.ft.CheckpointEvery, t.s
	for s.iter < t.iters {
		if t.needRecovery {
			return errNeedRecovery
		}
		if crash == t.executed {
			return errCrashed
		}
		if s.iter > 0 && s.iter%every == 0 && s.iter != t.lastCkpt {
			t.checkpoint(s.iter)
		}
		to := min(t.iters, (s.iter/every+1)*every)
		if crash > t.executed {
			to = min(to, s.iter+crash-t.executed)
		}
		from := s.iter
		err := s.cycles(to)
		t.executed += s.iter - from
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpoint snapshots the local block and ships the replica to the buddy.
func (t *ftTask) checkpoint(cycle int) {
	s := t.s
	snap := make([][]float64, s.rows)
	for i := 0; i < s.rows; i++ {
		snap[i] = append([]float64(nil), s.cur.row(i+1)...)
	}
	t.ownCkpt[cycle] = snap
	t.lastCkpt = cycle
	if b := t.buddyOf(t.rank); b != t.rank {
		t.send(b, ftCkpt, cycle, repart.EncodeRows(s.off, snap))
	}
}

// linger is the completion protocol: announce FINISH, then stay responsive
// (serving checkpoints and joining recoveries) until every participant has
// finished. Returns errNeedRecovery when a recovery is to roll the rank
// back into the compute loop.
func (t *ftTask) linger() error {
	t.broadcast(ftFinish, nil)
	t.finished[t.rank] = true
	announced := time.Now()
	return t.wait(t.detectBudget()*2, t.recoveryDue, func(waiting []int) (bool, []int) {
		// Re-announce periodically: a FINISH sent while a peer was still
		// inside its recovery commit was epoch-gated away on its side.
		if time.Since(announced) > t.detectBudget() {
			announced = time.Now()
			for _, r := range t.participants() {
				if r != t.rank && !t.finished[r] {
					t.send(r, ftFinish, 0, nil)
				}
			}
		}
		for _, r := range t.participants() {
			if !t.finished[r] {
				return false, append(waiting, r) // the first one still computing
			}
		}
		return true, waiting
	})
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
	preIter := t.s.iter
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
		t.broadcast(ftSync, encodeSyncInfo(si))
		err := t.collectSyncs(dl, parts)
		if err == nil {
			// The epoch of the new view is the agreed deadset size: monotone,
			// and — unlike a local counter — identical on every rank that
			// crossed this barrier, however many times its own barrier loop
			// restarted along the way.
			t.epoch = len(dl)
			err = t.applyRecovery(dl, parts)
		}
		if err == nil {
			break
		}
		// errNeedRecovery: the deadset grew during the barrier or a further
		// failure surfaced mid-migration, so the barrier restarts.
		if !errors.Is(err, errNeedRecovery) {
			return err
		}
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
	if replay := preIter - t.s.iter; replay > 0 {
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
			RollbackCycle: t.s.iter,
			Vector:        append(core.Vector(nil), t.vec...),
			LatencyMs:     latency,
		})
		copy(t.s.job.out.FinalVector, t.vec)
		t.sh.mu.Unlock()
	}
	return nil
}

// collectSyncs waits until every participant contributed a sync whose
// deadset matches dl. Returns errNeedRecovery when the deadset grew
// (restart). A participant that has not matched yet is verdicted only once
// it has been silent for a doubled detection budget — one that is merely
// behind (still computing, or flooding a smaller deadset) keeps itself alive
// with pings and converges via the monotone FAIL/SYNC merges.
func (t *ftTask) collectSyncs(dl []int, parts []int) error {
	return t.wait(t.detectBudget()*2, t.deadsetGrew(dl), func(waiting []int) (bool, []int) {
		for _, r := range parts {
			if si, ok := t.syncs[r]; !ok || !slices.Equal(si.dead, dl) {
				waiting = append(waiting, r)
			}
		}
		return len(waiting) == 0, waiting
	})
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

	newVec, err := t.ft.Repartition(parts)
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
	oldOff, oldRows := t.s.off, t.s.rows
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
	err = t.wait(t.detectBudget()*2, t.deadsetGrew(dl), func(waiting []int) (bool, []int) {
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
		// A holder that went silent mid-migration draws a verdict; one that
		// is alive but still in its own barrier keeps pinging.
		for g := newOff; g < newOff+newRows; g++ {
			if !have[g-newOff] {
				waiting = append(waiting, holder(g))
			}
		}
		return pending == 0, waiting
	})
	if err != nil {
		return err
	}

	// Commit the new view. Buffered checkpoints (ckptIn) deliberately
	// survive the commit: a ward that crossed the barrier first may already
	// have sent its fresh cycle-c* replica, and stale blobs are inert —
	// validCkpt re-checks their shape against the new vector at every read.
	t.view(newVec, newOwn, ncur)
	t.s.iter = cstar
	// t.borders intentionally survives too: a neighbor that committed
	// first may already have sent post-rollback ghost rows, and border
	// content is timeline-independent (keyed by global row and cycle).
	t.syncs = map[int]syncInfo{}
	t.finished = map[int]bool{}
	t.ownCkpt = map[int][][]float64{}
	t.lastCkpt = 0

	if newRows == 0 {
		return errRetired
	}
	// Re-establish buddy replicas at c* under the new vector before
	// resuming, so a later failure can roll back to c* again. Cycle 0
	// stays implicit.
	if cstar == 0 {
		return nil
	}
	t.checkpoint(cstar)
	ward := t.wardOf(t.rank)
	if ward == t.rank {
		return nil
	}
	return t.wait(t.detectBudget()*2, t.deadsetGrew(dl), func(waiting []int) (bool, []int) {
		_, ok := t.validCkpt(ward, cstar)
		return ok, append(waiting, ward)
	})
}
