// Package npu simulates the execution timing of AI operators on an
// accelerator with the memory hierarchy of Fig. 2: an L1 cache inside
// each AICore (core frequency domain), a shared L2 cache and HBM
// (uncore domain). It implements the paper's white-box timeline
// analysis (Sect. 4.1-4.2) exactly: the cycle count of an operator is
// computed from Eqs. 4-8 as a function of the core frequency, and the
// per-pipeline busy time is accounted so the profiler can report the
// utilization ratios that drive bottleneck classification (Sect. 6.1).
//
// Unit conventions: frequency in MHz, time in microseconds, data in
// bytes, bandwidth in bytes per microsecond. A frequency in MHz is
// numerically cycles per microsecond, so Cycles = f * T needs no
// conversion constants.
package npu

import (
	"fmt"
	"math"

	"npudvfs/internal/op"
	"npudvfs/internal/vf"
)

// Chip holds the hardware parameters of the simulated accelerator.
type Chip struct {
	// Name labels the configuration in reports.
	Name string
	// Cores is core_num in Eq. 1: the number of AICores.
	Cores int
	// CLoad and CStore are the hardware constant C of Eq. 1 for the
	// move-in and move-out paths: bytes transferred per core cycle
	// per core (bus port width).
	CLoad, CStore float64
	// BWL2 and BWHBM are the peak uncore bandwidths in bytes/µs of
	// the L2 cache and HBM. An operator's effective BW_uncore
	// interpolates between them by its L2 hit rate (Sect. 4.1).
	BWL2, BWHBM float64
	// T0 is the fixed time overhead of a memory access in µs:
	// initiation of the operation, signal propagation, etc. (Eq. 3).
	T0 float64
	// Curve is the firmware voltage-frequency table.
	Curve *vf.Curve

	// UncoreScale is the uncore clock relative to nominal that
	// WithUncoreScale applied to BWL2 and BWHBM; set it only through
	// WithUncoreScale. Zero, the zero value, means the chip was never
	// scaled: its uncore runs at nominal.
	UncoreScale float64
}

// GBs converts a bandwidth in GB/s to the package convention bytes/µs.
func GBs(gbPerSec float64) float64 { return gbPerSec * 1000 }

// Default returns the reference chip configuration used by all paper
// reproduction experiments. The parameters are chosen so that operator
// saturation frequencies f_s (Eq. 2) fall below, inside and above the
// 1000-1800 MHz DVFS window depending on each operator's L2 hit rate,
// which is what produces the one-to-five-segment piecewise-linear
// performance curves of Sect. 4.3.
func Default() *Chip {
	return &Chip{
		Name:   "sim-npu",
		Cores:  32,
		CLoad:  64,
		CStore: 64,
		BWL2:   GBs(4000),
		BWHBM:  GBs(1200),
		T0:     0.2,
		Curve:  vf.Ascend(),
	}
}

// Validate checks the chip parameters.
func (c *Chip) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("npu: Cores = %d, must be positive", c.Cores)
	case c.CLoad <= 0 || c.CStore <= 0:
		return fmt.Errorf("npu: port widths must be positive (CLoad=%g, CStore=%g)", c.CLoad, c.CStore)
	case c.BWL2 <= 0 || c.BWHBM <= 0:
		return fmt.Errorf("npu: bandwidths must be positive (BWL2=%g, BWHBM=%g)", c.BWL2, c.BWHBM)
	case c.T0 < 0:
		return fmt.Errorf("npu: T0 = %g, must be non-negative", c.T0)
	case c.Curve == nil:
		return fmt.Errorf("npu: nil voltage-frequency curve")
	}
	return nil
}

// BWUncore returns the effective peak uncore bandwidth in bytes/µs for
// an operator with the given L2 hit rate.
func (c *Chip) BWUncore(l2Hit float64) float64 {
	return l2Hit*c.BWL2 + (1-l2Hit)*c.BWHBM
}

// WithUncoreScale returns a copy of the chip whose L2 and HBM
// bandwidths are scaled by the given factor, modeling an uncore
// domain running at scale x its nominal frequency. The copy records
// the scale, so the ground-truth power of a powersim.Ground on it
// follows without a second setting. Scales compose: scaling a scaled
// chip multiplies them. The platform the paper measures cannot tune
// the uncore (Sect. 8.2); this hook supports the what-if study of
// that future capability.
func (c *Chip) WithUncoreScale(scale float64) *Chip {
	scaled := *c
	scaled.BWL2 *= scale
	scaled.BWHBM *= scale
	if c.UncoreScale > 0 {
		scale *= c.UncoreScale
	}
	scaled.UncoreScale = scale
	return &scaled
}

// Throughput returns the Ld or St throughput in bytes/µs at core
// frequency fMHz, per Eq. 1: Tp(f) = min(C*f*core_num, BW_uncore).
func (c *Chip) Throughput(portC, l2Hit, fMHz float64) float64 {
	return math.Min(portC*fMHz*float64(c.Cores), c.BWUncore(l2Hit))
}

// SaturationMHz returns f_s of Eq. 2, the frequency at which the core
// side of the transfer path saturates the uncore bandwidth.
func (c *Chip) SaturationMHz(portC, l2Hit float64) float64 {
	return c.BWUncore(l2Hit) / (portC * float64(c.Cores))
}

// transferCycles implements Eq. 4: the core-domain cycles to move m
// bytes at frequency fMHz, including the fixed overhead T0:
//
//	Cycle(f) = m * max(f/BW_uncore, 1/(C*core_num)) + T0*f
//
// The first branch is active above the saturation frequency (uncore
// bandwidth limited, stall cycles grow linearly with f); the second
// below it (core-side port limited, constant cycles).
func (c *Chip) transferCycles(m, portC, l2Hit, fMHz float64) float64 {
	//lint:allow floateq exact sentinel: zero bytes moved short-circuits to zero cycles
	if m == 0 {
		return 0
	}
	perByte := math.Max(fMHz/c.BWUncore(l2Hit), 1/(portC*float64(c.Cores)))
	return m*perByte + c.T0*fMHz
}

// LdCycles returns Cycle(Ld) of Eq. 4 for one block of the operator.
func (c *Chip) LdCycles(s *op.Spec, fMHz float64) float64 {
	return c.transferCycles(s.LoadBytes, c.CLoad, s.L2Hit, fMHz)
}

// StCycles returns Cycle(St) of Eq. 4 for one block of the operator.
func (c *Chip) StCycles(s *op.Spec, fMHz float64) float64 {
	return c.transferCycles(s.StoreBytes, c.CStore, s.L2Hit, fMHz)
}

// Cycles returns the total core-domain cycle count of a Compute
// operator at core frequency fMHz, per the scenario equations of
// Sect. 4.2. Panics if called for a non-Compute spec; callers iterate
// traces and must branch on Class first.
//
// With L = Cycle(Ld), S = Cycle(St), K = Cycle(core) per block and n
// blocks:
//
//	PingPongFreeIndep (Eq. 5): L + S + n*K + (n-1)*max(L, S)
//	PingPongFreeDep   (Eq. 6): n * (L + K + S)
//	PingPongIndep     (Eq. 7): L + K + S + (n-1)*max(L, K, S)
//	PingPongDep       (Eq. 8): L + K + S + (n-1)*max(L+S, K)
//
// The published Eq. 8 is typeset ambiguously; we implement the reading
// consistent with its timeline (Fig. 8): Ld and St serialize with each
// other while double buffering hides the core computation, so the
// steady-state per-block period is max(L+S, K). All four forms are
// compositions of max() and non-negative linear functions of f, hence
// convex piecewise-linear with increasing slope (Sect. 4.2.5), and
// Eq. 8 is bounded by Eq. 7 (full overlap) below and Eq. 6 (no
// overlap) above.
func (c *Chip) Cycles(s *op.Spec, fMHz float64) float64 {
	if s.Class != op.Compute {
		panic(fmt.Sprintf("npu: Cycles called for %v operator %s", s.Class, s.Key()))
	}
	return cycles(s, c.LdCycles(s, fMHz), c.StCycles(s, fMHz))
}

// cycles composes the per-block Ld and St cycle counts l and st into
// the operator's total per its scenario (Eqs. 5-8).
func cycles(s *op.Spec, l, st float64) float64 {
	k := s.CoreCycles
	n := float64(s.Blocks)
	switch s.Scenario {
	case op.PingPongFreeIndep:
		return l + st + n*k + (n-1)*math.Max(l, st)
	case op.PingPongFreeDep:
		return n * (l + k + st)
	case op.PingPongIndep:
		return l + k + st + (n-1)*math.Max(l, math.Max(k, st))
	case op.PingPongDep:
		return l + k + st + (n-1)*math.Max(l+st, k)
	default:
		panic(fmt.Sprintf("npu: unknown scenario %v for operator %s", s.Scenario, s.Key()))
	}
}

// Time returns the wall-clock duration in µs of one execution of the
// operator at core frequency fMHz. For Compute operators this is
// Cycle(f)/f plus the frequency-independent pre/post-processing time;
// for AICPU, Communication and Idle entries it is the fixed duration.
func (c *Chip) Time(s *op.Spec, fMHz float64) float64 {
	if s.Class != op.Compute {
		return s.FixedTime
	}
	return c.Cycles(s, fMHz)/fMHz + s.PrePostTime
}

// TimeRatios returns Time and Ratios from one evaluation of Eq. 4:
// the operator's Ld and St cycles are computed once and feed both the
// cycle count and the per-pipeline busy time. Every block issues one Ld
// (MTE2), one St (MTE3) and one core computation on the operator's core
// pipeline, regardless of how much of that time overlaps; the ratios
// are those busy times over the wall-clock duration, the quantity the
// CANN profiler reports and Sect. 6.1 classifies on. Non-Compute
// entries have their fixed duration and zero ratios.
func (c *Chip) TimeRatios(s *op.Spec, fMHz float64) (float64, [op.NumPipes]float64) {
	var ratios [op.NumPipes]float64
	if s.Class != op.Compute {
		return s.FixedTime, ratios
	}
	l := c.LdCycles(s, fMHz)
	st := c.StCycles(s, fMHz)
	total := cycles(s, l, st)/fMHz + s.PrePostTime
	if total <= 0 {
		return total, ratios
	}
	var busy [op.NumPipes]float64
	n := float64(s.Blocks)
	busy[op.MTE2] = n * l / fMHz
	busy[op.MTE3] = n * st / fMHz
	busy[s.CorePipe] += n * s.CoreCycles / fMHz
	for p := range busy {
		ratios[p] = busy[p] / total
	}
	return total, ratios
}

// Ratios returns the per-pipeline utilization ratios of TimeRatios.
func (c *Chip) Ratios(s *op.Spec, fMHz float64) [op.NumPipes]float64 {
	_, ratios := c.TimeRatios(s, fMHz)
	return ratios
}
