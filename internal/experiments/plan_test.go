package experiments

import (
	"slices"
	"testing"

	"npudvfs/internal/npu"
	"npudvfs/internal/pipeline"
	"npudvfs/internal/powersim"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/vf"
)

// customLab is the GPU-like accelerator of examples/custom-accelerator:
// an 800-2000 MHz grid that the reference chip's frequencies do not
// describe.
func customLab(t *testing.T) *Harness {
	t.Helper()
	curve, err := vf.New(800, 2000, 100, 1400, 0.70, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	chip := &npu.Chip{
		Name: "gpu-like", Cores: 16, CLoad: 128, CStore: 128,
		BWL2: npu.GBs(6000), BWHBM: npu.GBs(2400), T0: 0.15, Curve: curve,
	}
	if err := chip.Validate(); err != nil {
		t.Fatal(err)
	}
	return &Harness{Lab: pipeline.NewLabFor(chip, powersim.Default(chip), thermal.Default(), 7)}
}

// On a chip other than the reference one, the figures profile, fit and
// validate on that chip's own grid: Fig. 16 validates at every interior
// point of 800-2000 MHz and has all three fits (which need the edges
// and the mid run profiled), Fig. 3 sweeps the whole window and the
// inference experiment drops to this chip's knee.
func TestCustomChipUsesItsOwnPlan(t *testing.T) {
	l := customLab(t)
	plan := l.Chip.Curve.Plan()
	want := []units.MHz{900, 1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1800, 1900}
	if !slices.Equal(plan.Eval, want) {
		t.Fatalf("plan validates at %v, want %v", plan.Eval, want)
	}

	r16, err := l.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r16.Rows {
		if !slices.Equal(row.MHz, units.Floats(plan.Eval)) {
			t.Errorf("Fig. 16 %s validated at %v, want %v", row.Name, row.MHz, plan.Eval)
		}
		for k := Func1; k <= Func3; k++ {
			if len(row.PredUs[k]) != len(plan.Eval) {
				t.Errorf("Fig. 16 %s: %s has %d predictions, want %d (fit points not profiled?)",
					row.Name, k, len(row.PredUs[k]), len(plan.Eval))
			}
		}
	}

	r3 := l.Fig3()
	if first, last := r3.Rows[0].MHz, r3.Rows[len(r3.Rows)-1].MHz; first != 800 || last != 2000 {
		t.Errorf("Fig. 3 sweeps %g-%g MHz, want 800-2000", first, last)
	}

	inf, err := l.Inference()
	if err != nil {
		t.Fatal(err)
	}
	if inf.LowMHz != float64(l.Chip.Curve.Knee()) {
		t.Errorf("inference compares against %g MHz, want the knee %g", inf.LowMHz, l.Chip.Curve.Knee())
	}
}
