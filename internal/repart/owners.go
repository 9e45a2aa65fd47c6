package repart

import "netpart/internal/core"

// Owners derives per-row ownership from a partition vector: a prefix sum
// over the vector's contiguous 1-D block decomposition. First(r) is rank
// r's first global row, Count(r) its row count, and OwnerOf(g) locates a
// row's rank by binary search. Every migration path in the tree (sim
// adaptive, live adaptive, FT recovery) derives who-sends-what-to-whom
// from a pair of Owners.
type Owners struct {
	prefix []int // len = ranks+1
}

// NewOwners builds the prefix sum for vec.
func NewOwners(vec core.Vector) Owners {
	prefix := make([]int, len(vec)+1)
	for r, a := range vec {
		prefix[r+1] = prefix[r] + a
	}
	return Owners{prefix: prefix}
}

// First returns rank's first global row.
func (o Owners) First(rank int) int { return o.prefix[rank] }

// Count returns rank's row count.
func (o Owners) Count(rank int) int { return o.prefix[rank+1] - o.prefix[rank] }

// OwnerOf returns the rank owning global row g.
func (o Owners) OwnerOf(g int) int {
	lo, hi := 0, len(o.prefix)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if o.prefix[mid] <= g {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Overlap returns how many rows rank a owns under o that rank b also owns
// under p — the rows a keeps (a == b across a revector) or the exact batch
// size a must send b (the receiver's expected count in every migration
// protocol).
func Overlap(o Owners, a int, p Owners, b int) int {
	lo := o.First(a)
	if f := p.First(b); f > lo {
		lo = f
	}
	hi := o.First(a) + o.Count(a)
	if e := p.First(b) + p.Count(b); e < hi {
		hi = e
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// overlapIn is Overlap expressed on raw prefix sums: how many of the rows
// rank r owns under the curPre decomposition fall inside the half-open row
// range [pl, pr). The planner's incremental objective uses it to maintain
// the kept-row count without materializing Owners pairs per candidate.
//
//netpart:hotpath
func overlapIn(curPre []int, r, pl, pr int) int {
	lo, hi := curPre[r], curPre[r+1]
	if pl > lo {
		lo = pl
	}
	if pr < hi {
		hi = pr
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// MovedRows counts the rows whose owner differs between the two vectors —
// the set-difference size the migration protocol will put on the wire and
// the rows_moved argument of cost.Migration.
func MovedRows(old, new core.Vector) int {
	oldOwn, newOwn := NewOwners(old), NewOwners(new)
	total := oldOwn.prefix[len(oldOwn.prefix)-1]
	kept := 0
	for r := 0; r < len(new); r++ {
		kept += Overlap(oldOwn, r, newOwn, r)
	}
	return total - kept
}

// ForEachSpan walks the contiguous block [first, first+count) and invokes
// fn once per maximal run of rows owned by the same rank under own,
// skipping runs owned by skip (the caller itself). Runs are visited in
// ascending global-row — and therefore ascending destination-rank — order,
// which is the deterministic send order every migration path uses.
func ForEachSpan(first, count int, own Owners, skip int, fn func(dst, spanFirst, spanCount int) error) error {
	for g := first; g < first+count; {
		dst := own.OwnerOf(g)
		end := own.First(dst) + own.Count(dst)
		if lim := first + count; end > lim {
			end = lim
		}
		if dst != skip {
			if err := fn(dst, g, end-g); err != nil {
				return err
			}
		}
		g = end
	}
	return nil
}
