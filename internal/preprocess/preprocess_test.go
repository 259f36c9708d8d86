package preprocess

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"npudvfs/internal/classify"
	"npudvfs/internal/npu"
	"npudvfs/internal/profiler"
	"npudvfs/internal/workload"
)

// syntheticProfile builds a profile with explicit durations and
// sensitivities for precise merge testing.
func syntheticProfile(durs []float64, sensitive []bool) (*profiler.Profile, []classify.Result) {
	spec := workload.RepresentativeOps()[0]
	prof := &profiler.Profile{FreqMHz: 1800, DurMicros: durs}
	results := make([]classify.Result, len(durs))
	now := 0.0
	for i, d := range durs {
		prof.Trace = append(prof.Trace, spec)
		now += d
		results[i] = classify.Result{Sensitive: sensitive[i]}
		if sensitive[i] {
			results[i].Bottleneck = classify.CoreBound
		}
	}
	prof.TotalMicros = now
	return prof, results
}

func TestStagesSplitOnSensitivity(t *testing.T) {
	prof, res := syntheticProfile(
		[]float64{100, 100, 200, 200, 100},
		[]bool{false, false, true, true, false},
	)
	stages, err := Stages(prof, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("got %d stages, want 3", len(stages))
	}
	wantSens := []bool{false, true, false}
	wantDur := []float64{200, 400, 100}
	wantStart := []float64{0, 200, 600}
	for i, s := range stages {
		if s.Sensitive != wantSens[i] || s.DurMicros != wantDur[i] || s.StartMicros != wantStart[i] {
			t.Errorf("stage %d = %+v, want sens=%v dur=%g start=%g",
				i, s, wantSens[i], wantDur[i], wantStart[i])
		}
	}
	if err := Validate(stages, prof.Len()); err != nil {
		t.Error(err)
	}
}

func TestMergeShortStageIntoLongerNeighbor(t *testing.T) {
	// Middle HFC stage of 50 µs is below a 100 µs FAI and must merge
	// into the longer LFC neighbor (the right one, 500 µs).
	prof, res := syntheticProfile(
		[]float64{300, 50, 500},
		[]bool{false, true, false},
	)
	stages, err := Stages(prof, res, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2 after merging", len(stages))
	}
	if stages[0].Sensitive || stages[1].Sensitive {
		t.Errorf("absorbed stage must take the neighbor's label: %+v", stages)
	}
	if stages[1].DurMicros != 550 {
		t.Errorf("merged stage duration = %g, want 550", stages[1].DurMicros)
	}
	if err := Validate(stages, prof.Len()); err != nil {
		t.Error(err)
	}
}

func TestMergeFirstStage(t *testing.T) {
	prof, res := syntheticProfile(
		[]float64{20, 400},
		[]bool{true, false},
	)
	stages, err := Stages(prof, res, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 {
		t.Fatalf("got %d stages, want 1", len(stages))
	}
	if stages[0].Sensitive {
		t.Error("label must come from the absorbing (longer) stage")
	}
	if stages[0].OpStart != 0 || stages[0].OpEnd != 2 {
		t.Errorf("merged bounds = [%d,%d), want [0,2)", stages[0].OpStart, stages[0].OpEnd)
	}
}

func TestAllStagesAboveFAISurvive(t *testing.T) {
	prof, res := syntheticProfile(
		[]float64{5000, 6000, 7000},
		[]bool{false, true, false},
	)
	stages, err := Stages(prof, res, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("got %d stages, want 3 (no merging needed)", len(stages))
	}
}

func TestSingleStageNeverMergedAway(t *testing.T) {
	prof, res := syntheticProfile([]float64{10}, []bool{true})
	stages, err := Stages(prof, res, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 {
		t.Fatalf("got %d stages, want 1", len(stages))
	}
}

func TestStagesErrors(t *testing.T) {
	if _, err := Stages(nil, nil, 0); err == nil {
		t.Error("nil profile: want error")
	}
	prof, res := syntheticProfile([]float64{10}, []bool{true})
	if _, err := Stages(prof, res[:0], 0); err == nil {
		t.Error("mismatched classification length: want error")
	}
}

func TestValidateCatchesGaps(t *testing.T) {
	bad := []Stage{{OpStart: 0, OpEnd: 3}, {OpStart: 4, OpEnd: 6}}
	if err := Validate(bad, 6); err == nil {
		t.Error("gap between stages: want error")
	}
	if err := Validate([]Stage{{OpStart: 0, OpEnd: 3}}, 6); err == nil {
		t.Error("short coverage: want error")
	}
	if err := Validate(nil, 0); err == nil {
		t.Error("no stages: want error")
	}
}

// Larger FAI must produce monotonically fewer (or equal) candidates —
// the mechanism behind the Fig. 18 FAI comparison.
func TestFAIMonotonicity(t *testing.T) {
	chip := npu.Default()
	p := profiler.NewNoiseless(chip)
	m := workload.GPT3()
	prof, err := p.Run(m.Trace, 1800)
	if err != nil {
		t.Fatal(err)
	}
	res := classify.Trace(prof)
	prev := -1
	for _, fai := range []float64{5000, 100000, 1000000} {
		stages, err := Stages(prof, res, fai)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(stages, prof.Len()); err != nil {
			t.Fatalf("FAI %g: %v", fai, err)
		}
		for _, s := range stages[:len(stages)-1] {
			if s.DurMicros < fai {
				t.Fatalf("FAI %g: stage of %g µs survived merging", fai, s.DurMicros)
			}
		}
		if prev >= 0 && len(stages) > prev {
			t.Errorf("FAI %g produced more stages (%d) than smaller FAI (%d)", fai, len(stages), prev)
		}
		prev = len(stages)
	}
}

// The 5 ms FAI on GPT-3 must produce a substantial number of stages —
// the paper's policy issues 821 SetFreq per iteration.
func TestGPT3StageCountScale(t *testing.T) {
	chip := npu.Default()
	p := profiler.NewNoiseless(chip)
	prof, err := p.Run(workload.GPT3().Trace, 1800)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Stages(prof, classify.Trace(prof), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) < 100 || len(stages) > 3000 {
		t.Errorf("GPT-3 stages at 5 ms FAI = %d, want hundreds", len(stages))
	}
}

// referenceMerge is step 4 as it was written before the heap: rescan
// every stage for the shortest one below the FAI, merge it, copy the
// slice, repeat. Quadratic, and the definition mergeShort must
// reproduce choice for choice.
func referenceMerge(stages []Stage, faiMicros float64) []Stage {
	for len(stages) > 1 {
		shortest, minDur := -1, faiMicros
		for i, s := range stages {
			if s.DurMicros < minDur {
				shortest, minDur = i, s.DurMicros
			}
		}
		if shortest < 0 {
			break
		}
		stages = referenceMergeInto(stages, shortest)
	}
	return stages
}

// referenceMergeInto merges stage i into its longer-duration neighbor
// and returns the shortened slice.
func referenceMergeInto(stages []Stage, i int) []Stage {
	target := i - 1
	if i == 0 {
		target = 1
	} else if i+1 < len(stages) && stages[i+1].DurMicros > stages[i-1].DurMicros {
		target = i + 1
	}
	lo, hi := i, target
	if lo > hi {
		lo, hi = hi, lo
	}
	merged := Stage{
		OpStart:     stages[lo].OpStart,
		OpEnd:       stages[hi].OpEnd,
		StartMicros: stages[lo].StartMicros,
		DurMicros:   stages[lo].DurMicros + stages[hi].DurMicros,
		Sensitive:   stages[target].Sensitive,
	}
	out := append([]Stage{}, stages[:lo]...)
	out = append(out, merged)
	out = append(out, stages[hi+1:]...)
	return out
}

// checkAgainstReference compares Stages at faiMicros with the
// reference merge of the unmerged split, field for field; the floats
// must be the same bits, not merely close, because stage durations and
// start times reach the strategy bytes.
func checkAgainstReference(t *testing.T, label string, prof *profiler.Profile, res []classify.Result, faiMicros float64) {
	t.Helper()
	split, err := Stages(prof, res, 0)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := referenceMerge(split, faiMicros)
	got, err := Stages(prof, res, faiMicros)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d stages, reference has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: stage %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
	if err := Validate(got, prof.Len()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func TestStagesMatchReferenceOnRegistry(t *testing.T) {
	p := profiler.NewNoiseless(npu.Default())
	for _, name := range workload.Names() {
		m, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := p.Run(m.Trace, 1800)
		if err != nil {
			t.Fatal(err)
		}
		res := classify.Trace(prof)
		for _, faiMillis := range []float64{0, 1, 5, 20, 100} {
			checkAgainstReference(t, fmt.Sprintf("%s at %g ms", name, faiMillis), prof, res, faiMillis*1000)
		}
	}
}

// TestStagesMatchReferenceOnTies drives the merge through the cases
// where the order of choices is decided by position rather than by
// duration: durations drawn from a handful of values (so equal
// shortest stages and equal neighbors are the norm), zero-duration
// stages, a single stage, and thresholds above every stage.
func TestStagesMatchReferenceOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	palettes := [][]float64{
		{0, 1, 2, 3},
		{0, 0, 0, 5},
		{7},
		{1, 1, 2, 1000},
		{0.1, 0.2, 0.30000000000000004, 1e-9},
	}
	for round := 0; round < 400; round++ {
		palette := palettes[round%len(palettes)]
		n := 1 + rng.Intn(60)
		durs := make([]float64, n)
		sens := make([]bool, n)
		for i := range durs {
			durs[i] = palette[rng.Intn(len(palette))]
			switch round % 3 {
			case 0: // every record its own stage
				sens[i] = i%2 == 0
			case 1: // random run lengths
				sens[i] = rng.Intn(2) == 0
			} // case 2: one stage
		}
		prof, res := syntheticProfile(durs, sens)
		for _, fai := range []float64{0.5, 1, 2.5, 6, 1e12} {
			checkAgainstReference(t, fmt.Sprintf("round %d fai %g durs %v", round, fai, durs), prof, res, fai)
		}
	}
}

// TestStagesMergeInPlace holds candidate splitting and FAI merging on
// GPT-3's ~18,000 operators at the 5 ms FAI under 8 MB: the merge keeps
// its stages in place (795 MB when every merge copied the slice).
func TestStagesMergeInPlace(t *testing.T) {
	prof, err := profiler.NewNoiseless(npu.Default()).Run(workload.GPT3().Trace, 1800)
	if err != nil {
		t.Fatal(err)
	}
	res := classify.Trace(prof)
	n := allocBytes(func() {
		if _, err := Stages(prof, res, 5000); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Stages on GPT-3: %d bytes", n)
	if n >= 8_000_000 {
		t.Errorf("Stages on GPT-3 allocated %d bytes, want < 8 MB (in-place stage merging)", n)
	}
}

// allocBytes returns the heap bytes one warm call of f allocates.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
