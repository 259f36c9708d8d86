package ga

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// scored is one population slot. genes and sums point into the
// island's preallocated double buffers and are recycled every
// generation; row is the slot's fixed slab row index, which never
// changes because ranking permutes an index array instead of moving
// slots — that is what keeps each generation's children a contiguous
// slab range InitSumsBatch can sweep. A gene is one byte (see the
// package comment): a child is Genes() bytes to copy, not 8·Genes().
type scored struct {
	genes []uint8
	score float64
	sums  []float64
	row   int32
}

// rankInvQ is the resolution of the rank-selection inverse-CDF hint
// table: the unit interval is split into rankInvQ buckets, each
// holding the first rank whose cumulative weight reaches the bucket
// boundary, so a pick is one table load plus an expected
// size/rankInvQ-step linear advance instead of a binary search.
const rankInvQ = 1024

// island is one independent sub-population. Everything an island
// touches while breeding and scoring — populations, RNG, scratch — is
// island-owned, so islands run concurrently with no locks and no false
// sharing, and results cannot depend on worker scheduling. Only
// migration (on the coordinator, between segments) reaches across
// islands.
type island struct {
	id    int
	size  int
	elite int
	rng   splitmix

	// buf backs both generations plus the spare slot: pop and next
	// are its halves (swapped every generation), spare is the last
	// slot. The spare absorbs the discarded second child of the final
	// pair when size-elite is odd — bred and mutated like any child
	// so the RNG draw sequence is independent of parity, then dropped
	// unscored.
	buf   []scored
	pop   []scored
	next  []scored
	spare *scored

	geneBlock []uint8
	sumBlock  []float64
	// wide is the serial path's widening scratch: Problem.Score takes
	// []int, so each child is widened into it before the call. Nil on
	// the incremental path, which never calls Score.
	wide []int

	// perm is the ranking permutation: perm[r] is the pop slot of the
	// rank-r individual (descending score, ties to the lower slot).
	// sc is a flat copy of the slot scores (indexed by slot); key,
	// keyTmp and radixHist are the radix sort's slabs — see rank.
	perm      []int32
	permTmp   []int32
	sc        []float64
	key       []uint64
	keyTmp    []uint64
	radixHist []int32

	// Rank selection weights parents quadratically by rank — the
	// power-minimization objective leaves compliant individuals within
	// fractions of a percent of each other, where score-proportional
	// selection has almost no pressure. The weights depend only on
	// rank, so the prefix sums and the inverse-CDF hint table are built
	// once.
	rankPrefix []float64
	rankTotal  float64
	rankInv    []int32

	hist   []float64 // best score after each generation, indexed by generation
	filled int       // initial-population slots filled so far
	evals  int
	err    error
}

// init allocates the island's slabs and scratch for its share of the
// population. Called once per Engine; Run-to-Run state is restored by
// reset.
func (isl *island) init(e *Engine, id, size int) {
	isl.id, isl.size, isl.elite = id, size, e.cfg.Elitism
	n := e.n
	slots := 2*size + 1
	isl.geneBlock = make([]uint8, slots*n)
	if e.inc {
		isl.sumBlock = make([]float64, slots*e.sumN)
	} else {
		isl.wide = make([]int, n)
	}
	isl.buf = make([]scored, slots)
	for i := range isl.buf {
		isl.buf[i].genes = isl.geneBlock[i*n : (i+1)*n : (i+1)*n]
		if e.inc {
			isl.buf[i].sums = isl.sumBlock[i*e.sumN : (i+1)*e.sumN : (i+1)*e.sumN]
		}
		isl.buf[i].row = int32(i)
	}
	isl.perm = make([]int32, size)
	isl.permTmp = make([]int32, size)
	isl.sc = make([]float64, size)
	isl.key = make([]uint64, size)
	isl.keyTmp = make([]uint64, size)
	isl.radixHist = make([]int32, 256)
	isl.hist = make([]float64, e.cfg.Generations+1)

	isl.rankPrefix = make([]float64, size)
	sum := 0.0
	for i := 0; i < size; i++ {
		w := float64(size-i) * float64(size-i)
		sum += w
		isl.rankPrefix[i] = sum
	}
	isl.rankTotal = sum
	// rankInv[q] is the smallest rank whose cumulative weight reaches
	// q/rankInvQ of the total — a lower bound for the answer of any
	// pick landing in bucket q.
	isl.rankInv = make([]int32, rankInvQ)
	q := 0
	for r := 0; r < size; r++ {
		for q < rankInvQ && float64(q)*sum/rankInvQ <= isl.rankPrefix[r] {
			isl.rankInv[q] = int32(r)
			q++
		}
	}
	for ; q < rankInvQ; q++ {
		isl.rankInv[q] = int32(size - 1)
	}
}

// reset restores the island to its pre-search state so Engine.Run
// reproduces byte-identical results on reuse: RNG re-seeded, buffers
// re-oriented, counters cleared.
func (isl *island) reset(e *Engine) {
	isl.rng = newSplitmix(e.cfg.Seed, isl.id)
	isl.pop, isl.next = isl.buf[:isl.size], isl.buf[isl.size:2*isl.size]
	isl.spare = &isl.buf[2*isl.size]
	isl.filled = 0
	isl.evals = 0
	isl.err = nil
}

// fillRandom completes the initial population with uniform random
// individuals after the seeds were placed.
func (isl *island) fillRandom(e *Engine) {
	for ; isl.filled < isl.size; isl.filled++ {
		g := isl.pop[isl.filled].genes
		for i := range g {
			g[i] = uint8(isl.rng.Intn(e.alleles))
		}
	}
}

// scoreInitial scores generation zero.
func (isl *island) scoreInitial(e *Engine) {
	if e.inc {
		isl.scoreIncremental(e, isl.pop, true)
	} else {
		isl.scoreSerial(e, isl.pop)
	}
}

// runGens advances the island through breeding steps (from..to]. On
// context cancellation it records the error and stops; the coordinator
// surfaces it after the segment barrier.
func (isl *island) runGens(ctx context.Context, e *Engine, from, to int) {
	for g := from; g <= to; g++ {
		if err := ctx.Err(); err != nil {
			isl.err = fmt.Errorf("ga: search cancelled at generation %d/%d: %w", g-1, e.cfg.Generations, err)
			return
		}
		isl.breed(e)
		children := isl.next[isl.elite:]
		if e.inc {
			isl.scoreIncremental(e, children, g%sumRefreshEvery == 0)
		} else {
			isl.scoreSerial(e, children)
		}
		isl.evals += len(children)
		isl.pop, isl.next = isl.next, isl.pop
		isl.rank()
		isl.hist[g] = isl.sc[isl.perm[0]]
	}
}

// breed fills next from pop: elites first, then score-selected pairs
// recombined by tail-swap crossover and burst mutation. The RNG draw
// order (pick a, pick b, crossover roll, k, then per child the
// mutation roll and burst draws) is fixed — tests pin same-seed
// trajectories to it. Crossover children are assembled gene-by-gene
// from their two parents (head from one, tail from the other) with
// the shorter segment treated as replaced: the incremental path
// starts from the longer parent's sums and applies at most genes/2
// deltas per child, never a full re-walk.
func (isl *island) breed(e *Engine) {
	n := e.n
	for i := 0; i < isl.elite; i++ {
		isl.copySlot(e, &isl.next[i], &isl.pop[isl.perm[i]])
	}
	for made := isl.elite; made < isl.size; made += 2 {
		pa := isl.pickParent()
		pb := isl.pickParent()
		childA := &isl.next[made]
		childB := isl.spare
		if made+1 < isl.size {
			childB = &isl.next[made+1]
		}
		k := 0
		if isl.rng.Float64() < e.cfg.CrossoverRate && n > 1 {
			// Swap the last k genes (Sect. 6.3.3).
			k = 1 + isl.rng.Intn(n-1)
		}
		if 2*k <= n {
			isl.makeChild(e, childA, pa, pb, n-k, n)
			isl.makeChild(e, childB, pb, pa, n-k, n)
		} else {
			isl.makeChild(e, childA, pb, pa, 0, n-k)
			isl.makeChild(e, childB, pa, pb, 0, n-k)
		}
		isl.mutate(e, childA)
		isl.mutate(e, childB)
	}
}

// copySlot initializes dst as a copy of src (genes, score, sums).
func (isl *island) copySlot(e *Engine, dst, src *scored) {
	copy(dst.genes, src.genes)
	dst.score = src.score
	if e.inc {
		copy(dst.sums, src.sums)
	}
}

// makeChild builds dst as base with genes [lo, hi) replaced from
// other, writing every child gene exactly once (no copy-then-swap
// traffic). Under incremental scoring dst's sums start from base's
// and take one delta per differing gene in ascending order — callers
// pick base so that hi-lo is the short side, bounding the deltas at
// n/2 per child. dst.score is left stale: children are always
// rescored after breeding.
func (isl *island) makeChild(e *Engine, dst, base, other *scored, lo, hi int) {
	copy(dst.genes[:lo], base.genes[:lo])
	copy(dst.genes[hi:], base.genes[hi:])
	if !e.inc {
		copy(dst.genes[lo:hi], other.genes[lo:hi])
		return
	}
	if ds, bs := dst.sums, base.sums; len(ds) == 4 && len(bs) == 4 {
		// The evaltab quadruple: an inline copy dodges a memmove call
		// per child on the dominant problem shape.
		ds[0], ds[1], ds[2], ds[3] = bs[0], bs[1], bs[2], bs[3]
	} else {
		copy(ds, bs)
	}
	// Copy the segment in one memmove, then find the genes that differ
	// from base eight at a time: each set byte of a word's XOR is one
	// delta, taken lowest byte first so UpdateSums sees the same
	// ascending (gene, old, new) sequence a byte loop would.
	og, bg := other.genes, base.genes
	copy(dst.genes[lo:hi], og[lo:hi])
	i := lo
	for ; i+8 <= hi; i += 8 {
		x := binary.LittleEndian.Uint64(og[i:]) ^ binary.LittleEndian.Uint64(bg[i:])
		for x != 0 {
			s := bits.TrailingZeros64(x) &^ 7
			j := i + s>>3
			e.ps.UpdateSums(dst.sums, j, int(bg[j]), int(og[j]))
			x &^= 0xff << s
		}
	}
	for ; i < hi; i++ {
		if g, b := og[i], bg[i]; b != g {
			e.ps.UpdateSums(dst.sums, i, int(b), int(g))
		}
	}
}

// mutate rewrites a small burst of random genes; single-gene steps
// converge too slowly on thousand-stage problems.
func (isl *island) mutate(e *Engine, c *scored) {
	if isl.rng.Float64() >= e.cfg.MutationRate {
		return
	}
	burst := 1 + isl.rng.Intn(3)
	for m := 0; m < burst; m++ {
		idx := isl.rng.Intn(e.n)
		val := isl.rng.Intn(e.alleles)
		if old := int(c.genes[idx]); e.inc && old != val {
			e.ps.UpdateSums(c.sums, idx, old, val)
		}
		c.genes[idx] = uint8(val)
	}
}

// rank rebuilds the ranking permutation over pop: perm[r] becomes the
// slot of the rank-r individual, descending by score with ties to the
// lower slot index. It is an LSD radix sort: each score is mapped to
// a uint64 key whose ascending order is descending score order
// (sign-aware monotone float bits, complemented), the key-building
// sweep also ORs up a difference mask, and any pass whose byte is
// constant across the population — most of the high bytes, since
// fitness values share sign and exponent — is skipped outright. A
// comparison sort loses here because fitness order is essentially
// random, so about half its compares mispredict; radix scatter has no
// data-dependent branches at all. The sort is stable (equal scores
// keep ascending slot order) and no slot is physically moved — the
// slab rows, and with them the batch-scoring contiguity, are
// permanent.
func (isl *island) rank() {
	n := isl.size
	pop, sc, hist := isl.pop, isl.sc, isl.radixHist
	key, keyAlt := isl.key, isl.keyTmp
	perm, permAlt := isl.perm, isl.permTmp
	var k0, diff uint64
	for i := 0; i < n; i++ {
		s := pop[i].score
		sc[i] = s
		b := math.Float64bits(s)
		k := ^(b ^ (uint64(int64(b)>>63) | 1<<63))
		key[i] = k
		perm[i] = int32(i)
		if i == 0 {
			k0 = k
		}
		diff |= k ^ k0
	}
	h := hist[:256:256]
	for d := 0; d < 8; d++ {
		shift := uint(d * 8)
		if diff>>shift&0xff == 0 {
			continue // every key shares this byte
		}
		clear(h)
		for i := 0; i < n; i++ {
			h[int(key[i]>>shift&0xff)]++
		}
		ofs := int32(0)
		for b := range h {
			c := h[b]
			h[b] = ofs
			ofs += c
		}
		for i := 0; i < n; i++ {
			k := key[i]
			slot := &h[int(k>>shift&0xff)]
			j := *slot
			*slot = j + 1
			keyAlt[j] = k
			permAlt[j] = perm[i]
		}
		key, keyAlt = keyAlt, key
		perm, permAlt = permAlt, perm
	}
	if &perm[0] != &isl.perm[0] {
		copy(isl.perm, perm)
	}
}

// pickParent selects a parent by rank in O(1): one inverse-CDF table
// load plus a short linear advance (the table entry is a provable
// lower bound for the target rank) instead of a binary search.
func (isl *island) pickParent() *scored {
	u := isl.rng.Float64()
	x := u * isl.rankTotal
	r := int(isl.rankInv[int(u*rankInvQ)])
	for r < isl.size-1 && isl.rankPrefix[r] < x {
		r++
	}
	return &isl.pop[isl.perm[r]]
}

// scoreIncremental scores slots from their partial sums. When refresh
// is set (generation zero and every sumRefreshEvery generations
// after), the sums are rebuilt by full walks first — one batch call
// sweeping the cohort's contiguous slab rows — bounding the delta
// path's floating-point drift. Runs on the island's goroutine; a delta
// score is tens of nanoseconds, far below fan-out cost.
func (isl *island) scoreIncremental(e *Engine, cohort []scored, refresh bool) {
	if refresh {
		base, cnt := int(cohort[0].row), len(cohort)
		e.ps.InitSumsBatch(
			isl.geneBlock[base*e.n:(base+cnt)*e.n],
			cnt,
			isl.sumBlock[base*e.sumN:(base+cnt)*e.sumN])
	}
	for i := range cohort {
		cohort[i].score = sanitize(e.ps.ScoreSums(cohort[i].sums))
	}
}

// scoreSerial is the scoring path of every problem that is not a
// PartialScorer: one Score call per individual, in slot order, on the
// island's goroutine, each widened into the island's []int scratch
// first (Score is O(genes) already, so the widening is in its noise).
func (isl *island) scoreSerial(e *Engine, cohort []scored) {
	for i := range cohort {
		widen(isl.wide, cohort[i].genes)
		cohort[i].score = sanitize(e.p.Score(isl.wide))
	}
}

// widen copies byte genes into a caller-facing []int vector.
func widen(dst []int, src []uint8) {
	for i, g := range src {
		dst[i] = int(g)
	}
}
