package adaptive

import (
	"context"
	"strings"
	"testing"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/ga"
	"npudvfs/internal/npu"
	"npudvfs/internal/powersim"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/vf"
	"npudvfs/internal/workload"
)

func aggressiveStrategy(chip *npu.Chip, trace int) *core.Strategy {
	// Alternate max and minimum frequency every few operators — an
	// over-aggressive policy that will overshoot a tight loss target
	// on a compute-heavy trace.
	s := &core.Strategy{BaselineMHz: chip.Curve.Max()}
	for i := 0; i < trace; i += 8 {
		f := chip.Curve.Min()
		if (i/8)%2 == 0 {
			f = chip.Curve.Max()
		}
		s.Points = append(s.Points, core.FreqPoint{OpIndex: i, FreqMHz: f})
	}
	return s
}

func TestNewValidation(t *testing.T) {
	curve := vf.Ascend()
	ok := executor.FixedStrategy(1800)
	if _, err := New(nil, ok, 100, 0.02); err == nil {
		t.Error("nil curve: want error")
	}
	if _, err := New(curve, nil, 100, 0.02); err == nil {
		t.Error("nil strategy: want error")
	}
	if _, err := New(curve, ok, 0, 0.02); err == nil {
		t.Error("zero baseline: want error")
	}
	if _, err := New(curve, ok, 100, 0); err == nil {
		t.Error("zero target: want error")
	}
}

func TestControllerCopiesStrategy(t *testing.T) {
	orig := executor.FixedStrategy(1000)
	c, err := New(vf.Ascend(), orig, 100, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(200) // 100% loss: raise
	if orig.Points[0].FreqMHz != 1000 {
		t.Error("controller mutated the caller's strategy")
	}
	if c.Strategy().Points[0].FreqMHz != 1100 {
		t.Errorf("controller strategy not raised: %g", c.Strategy().Points[0].FreqMHz)
	}
}

func TestObserveBands(t *testing.T) {
	c, err := New(vf.Ascend(), executor.FixedStrategy(1400), 1000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Inside the band: no change.
	if adj := c.Observe(1015); adj != None {
		t.Errorf("loss 1.5%%: adjustment %v, want none", adj)
	}
	// Far below the band: step down (no violation yet).
	if adj := c.Observe(1002); adj != Lowered {
		t.Errorf("loss 0.2%%: adjustment %v, want lowered", adj)
	}
	if got := c.Strategy().Points[0].FreqMHz; got != 1300 {
		t.Errorf("frequency after lowering = %g, want 1300", got)
	}
	// Violation: raise and ratchet.
	if adj := c.Observe(1050); adj != Raised {
		t.Errorf("loss 5%%: adjustment %v, want raised", adj)
	}
	// After a violation, low readings no longer lower.
	if adj := c.Observe(1001); adj != None {
		t.Errorf("post-ratchet low loss: adjustment %v, want none", adj)
	}
}

func TestRaiseSaturatesAtMax(t *testing.T) {
	c, err := New(vf.Ascend(), executor.FixedStrategy(1700), 1000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if adj := c.Observe(1100); adj != Raised {
		t.Fatalf("first raise: got %v", adj)
	}
	// Already at max: further violations change nothing.
	if adj := c.Observe(1100); adj != None {
		t.Errorf("raise at max: got %v, want none", adj)
	}
	if got := c.Strategy().Points[0].FreqMHz; got != 1800 {
		t.Errorf("frequency = %g, want clamped 1800", got)
	}
}

// Closed loop against the simulator: an over-aggressive strategy on a
// compute-heavy trace must be ratcheted up until the measured loss
// falls under the target, and stay there.
func TestClosedLoopConvergesUnderTarget(t *testing.T) {
	chip := npu.Default()
	ground := powersim.Default(chip)
	ex := executor.New(chip, ground)
	reps := workload.RepresentativeOps()
	// A conv-heavy trace: compute-bound, so frequency errors show up
	// directly as loss.
	m := workload.MicroOp(reps[3], 160) // Conv2D x160
	th := thermal.NewState(thermal.Default())
	base, err := ex.RunStable(m.Trace, executor.FixedStrategy(1800), th, executor.DefaultOptions(), 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.02
	ctl, err := New(chip.Curve, aggressiveStrategy(chip, len(m.Trace)), units.Micros(base.TimeMicros), target)
	if err != nil {
		t.Fatal(err)
	}
	var lastLoss float64
	converged := false
	for iter := 0; iter < 30; iter++ {
		res, err := ex.Run(m.Trace, ctl.Strategy(), th, executor.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = res.TimeMicros/base.TimeMicros - 1
		if ctl.Observe(units.Micros(res.TimeMicros)) == None && lastLoss <= target {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("controller did not converge: last loss %.4f", lastLoss)
	}
	if ctl.Adjustments() == 0 {
		t.Error("expected at least one adjustment for an over-aggressive strategy")
	}
	// Stability: ten more iterations produce no further edits.
	edits := ctl.Adjustments()
	for iter := 0; iter < 10; iter++ {
		res, err := ex.Run(m.Trace, ctl.Strategy(), th, executor.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ctl.Observe(units.Micros(res.TimeMicros))
	}
	if ctl.Adjustments() != edits {
		t.Errorf("controller kept editing after convergence: %d -> %d", edits, ctl.Adjustments())
	}
}

func TestAdjustmentString(t *testing.T) {
	if None.String() != "none" || Raised.String() != "raised" || Lowered.String() != "lowered" {
		t.Error("adjustment names wrong")
	}
}

// seekProblem rewards matching a target vector — a stand-in for the
// DVFS assignment problem with a known optimum.
type seekProblem struct {
	target  []int
	alleles int
}

func (p *seekProblem) Genes() int     { return len(p.target) }
func (p *seekProblem) Alleles() int   { return p.alleles }
func (p *seekProblem) Seeds() [][]int { return nil }
func (p *seekProblem) Score(ind []int) float64 {
	s := 0.0
	for i, g := range ind {
		if g == p.target[i] {
			s++
		}
	}
	return s
}

func TestReoptimizeWarmSeedsFromPreviousPopulation(t *testing.T) {
	p := &seekProblem{target: []int{1, 3, 0, 2, 4, 1, 2, 0, 3, 4, 2, 1}, alleles: 5}
	cfg := ga.DefaultConfig()
	cfg.PopSize = 40
	cfg.Generations = 120
	cfg.Islands = 2

	first, err := Reoptimize(context.Background(), p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Population) != cfg.PopSize {
		t.Fatalf("cold Reoptimize captured %d individuals, want %d", len(first.Population), cfg.PopSize)
	}

	// The warm restart must start where the previous search ended: its
	// generation-0 best can never fall below the previous best score.
	cfg.Generations = 10
	second, err := Reoptimize(context.Background(), p, cfg, first)
	if err != nil {
		t.Fatal(err)
	}
	if second.History[0] < first.BestScore {
		t.Fatalf("warm restart History[0] = %v below previous best %v", second.History[0], first.BestScore)
	}
	if len(second.Population) != cfg.PopSize {
		t.Fatalf("warm Reoptimize captured %d individuals, want %d", len(second.Population), cfg.PopSize)
	}

	if _, err := Reoptimize(context.Background(), nil, cfg, first); err == nil {
		t.Fatal("nil problem accepted")
	}
}

// TestReoptimizeRejectsForeignAlleles: a previous result captured on a
// wider grid (or corrupted) carries alleles the new problem does not
// have. They used to be scored as whatever the neighbouring stage's
// table cells held; the search must refuse them instead.
func TestReoptimizeRejectsForeignAlleles(t *testing.T) {
	cfg := ga.DefaultConfig()
	cfg.PopSize = 40
	cfg.Generations = 60
	cfg.Islands = 2
	wide := &seekProblem{target: []int{8, 7, 6, 8, 7, 6, 8, 7}, alleles: 9}
	prev, err := Reoptimize(context.Background(), wide, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	narrow := &seekProblem{target: []int{1, 3, 0, 2, 4, 1, 2, 0}, alleles: 5}
	_, err = Reoptimize(context.Background(), narrow, cfg, prev)
	if err == nil || !strings.Contains(err.Error(), "initial individual has allele") || !strings.Contains(err.Error(), "want [0, 5)") {
		t.Fatalf("population from a 9-point grid on a 5-point problem: err = %v, want an allele range error", err)
	}

	negative := &ga.Result{Population: [][]int{{1, 3, 0, 2, 4, 1, 2, 0}, {1, 3, 0, -1, 4, 1, 2, 0}}}
	_, err = Reoptimize(context.Background(), narrow, cfg, negative)
	if want := "ga: initial individual has allele -1 at gene 3, want [0, 5)"; err == nil || err.Error() != want {
		t.Fatalf("negative allele: err = %v, want %q", err, want)
	}
}
