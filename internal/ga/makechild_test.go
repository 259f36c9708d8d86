package ga

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// recordingScorer is a PartialScorer that logs every UpdateSums call.
// Its deltas are inexact in float64 (thirds), so applying the same
// calls in another order, or a different set of them, shows in the
// bits of the sums as well as in the log.
type recordingScorer struct {
	genes int
	calls [][3]int
}

func (r *recordingScorer) Genes() int                            { return r.genes }
func (r *recordingScorer) Alleles() int                          { return 256 }
func (r *recordingScorer) Seeds() [][]int                        { return nil }
func (r *recordingScorer) Score([]int) float64                   { return 0 }
func (r *recordingScorer) SumCount() int                         { return 4 }
func (r *recordingScorer) InitSumsBatch([]uint8, int, []float64) {}
func (r *recordingScorer) ScoreSums(sums []float64) float64      { return sums[0] }
func (r *recordingScorer) UpdateSums(sums []float64, gene, oldAllele, newAllele int) {
	r.calls = append(r.calls, [3]int{gene, oldAllele, newAllele})
	for k := range sums {
		sums[k] += recordingWeight(gene, newAllele, k) - recordingWeight(gene, oldAllele, k)
	}
}

func recordingWeight(gene, allele, k int) float64 {
	return float64(gene*7+allele*13+k*5+1) / 3
}

// makeChildByteLoop is makeChild's incremental branch as it was when
// it walked the segment one gene at a time: the reference the word
// loop must reproduce call for call.
func makeChildByteLoop(_ *island, e *Engine, dst, base, other *scored, lo, hi int) {
	copy(dst.genes[:lo], base.genes[:lo])
	copy(dst.genes[hi:], base.genes[hi:])
	copy(dst.sums, base.sums)
	for i := lo; i < hi; i++ {
		g := other.genes[i]
		dst.genes[i] = g
		if bg := base.genes[i]; bg != g {
			e.ps.UpdateSums(dst.sums, i, int(bg), int(g))
		}
	}
}

type makeChildFunc func(isl *island, e *Engine, dst, base, other *scored, lo, hi int)

type childOutcome struct {
	genes []uint8
	sums  []float64
	calls [][3]int
}

func runMakeChild(build makeChildFunc, base, other []uint8, lo, hi int) childOutcome {
	n := len(base)
	rec := &recordingScorer{genes: n}
	e := &Engine{p: rec, ps: rec, inc: true, n: n, sumN: rec.SumCount()}
	b := &scored{genes: base, sums: []float64{1.5, -2.25, 1e6 / 3, 0.1}}
	o := &scored{genes: other}
	dst := &scored{genes: make([]uint8, n), sums: make([]float64, 4)}
	for i := range dst.genes {
		dst.genes[i] = 0xa5 // stale contents from the slot's last use
	}
	for i := range dst.sums {
		dst.sums[i] = math.NaN()
	}
	build(&island{}, e, dst, b, o, lo, hi)
	return childOutcome{genes: dst.genes, sums: dst.sums, calls: rec.calls}
}

// checkMakeChild asserts makeChild matches the byte-loop reference on
// one (base, other, [lo, hi)) input: the same child genes, the same
// UpdateSums calls in the same order, and bit-equal sums.
func checkMakeChild(t testing.TB, base, other []uint8, lo, hi int) {
	t.Helper()
	got := runMakeChild((*island).makeChild, base, other, lo, hi)
	want := runMakeChild(makeChildByteLoop, base, other, lo, hi)
	label := fmt.Sprintf("n=%d [%d,%d)", len(base), lo, hi)
	if string(got.genes) != string(want.genes) {
		t.Fatalf("%s: child genes %v, want %v", label, got.genes, want.genes)
	}
	if len(got.calls) != len(want.calls) {
		t.Fatalf("%s: %d UpdateSums calls %v, want %d %v", label, len(got.calls), got.calls, len(want.calls), want.calls)
	}
	for i := range got.calls {
		if got.calls[i] != want.calls[i] {
			t.Fatalf("%s: UpdateSums call %d is %v, want %v", label, i, got.calls[i], want.calls[i])
		}
	}
	for k := range got.sums {
		if math.Float64bits(got.sums[k]) != math.Float64bits(want.sums[k]) {
			t.Fatalf("%s: sums[%d] = %v, want %v", label, k, got.sums[k], want.sums[k])
		}
	}
}

// parentPairs returns the (base, other) pairs makeChild is checked on
// at length n: identical parents, parents differing at every gene, one
// pair per offset differing there alone, and two random pairs (one
// over all 256 alleles, one over 4 so runs of equal genes occur).
func parentPairs(n int, rng *splitmix) [][2][]uint8 {
	random := func(alleles int) []uint8 {
		g := make([]uint8, n)
		for i := range g {
			g[i] = uint8(rng.Intn(alleles))
		}
		return g
	}
	base := random(256)
	allDiff := make([]uint8, n)
	for i := range allDiff {
		allDiff[i] = base[i] ^ uint8(1+rng.Intn(255))
	}
	pairs := [][2][]uint8{
		{base, append([]uint8(nil), base...)},
		{base, allDiff},
		{random(256), random(256)},
		{random(4), random(4)},
	}
	for d := 0; d < n; d++ {
		one := append([]uint8(nil), base...)
		one[d] ^= 0x80
		pairs = append(pairs, [2][]uint8{base, one})
	}
	return pairs
}

// TestMakeChildMatchesByteLoop holds makeChild's word-at-a-time parent
// diff to the byte loop it replaced: every (lo, hi) up to 17 genes
// (empty ranges, all-tail ranges, one word plus a tail, two words),
// and ranges that start, end and straddle word boundaries on the
// 63/64/65-gene edges and GPT-3's 1,446-gene shape.
func TestMakeChildMatchesByteLoop(t *testing.T) {
	rng := newSplitmix(1, 0)
	for n := 1; n <= 17; n++ {
		for _, p := range parentPairs(n, &rng) {
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					checkMakeChild(t, p[0], p[1], lo, hi)
				}
			}
		}
	}
	for _, n := range []int{63, 64, 65, 1446} {
		var ranges [][2]int
		for _, lo := range []int{0, 1, 7, 8, 9, n/2 - 3, n - 9, n - 8, n - 1, n} {
			for _, w := range []int{0, 1, 7, 8, 9, 16, 17, 23, n} {
				ranges = append(ranges, [2]int{lo, min(lo+w, n)})
			}
		}
		for _, p := range parentPairs(n, &rng) {
			for _, r := range ranges {
				checkMakeChild(t, p[0], p[1], r[0], r[1])
			}
		}
	}
}

// FuzzMakeChild runs the byte-loop oracle on arbitrary parents and
// segments. The parents are cut to their common length; lo and hi are
// folded into 0 ≤ lo ≤ hi ≤ n.
func FuzzMakeChild(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopq"), []byte("abcdefgXijklmnoPq"), uint16(3), uint16(12))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 9}, uint16(1), uint16(8))
	f.Add(make([]byte, 70), bytes.Repeat([]byte{0xff}, 70), uint16(0), uint16(70))
	f.Fuzz(func(t *testing.T, base, other []byte, lo, hi uint16) {
		n := min(len(base), len(other))
		if n == 0 {
			return
		}
		l := int(lo) % (n + 1)
		h := l + int(hi)%(n-l+1)
		checkMakeChild(t, base[:n:n], other[:n:n], l, h)
	})
}
