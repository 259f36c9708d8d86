package workload

import (
	"reflect"
	"strings"
	"testing"

	"npudvfs/internal/npu"
	"npudvfs/internal/op"
)

func allModels() []*Model {
	return append(PerfEvalModels(), GPT3(), ResNet152(), Llama2Inference())
}

func TestAllModelsValidate(t *testing.T) {
	for _, m := range allModels() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestModelsDeterministic(t *testing.T) {
	a, b := GPT3(), GPT3()
	if a.Ops() != b.Ops() {
		t.Fatalf("op counts differ: %d vs %d", a.Ops(), b.Ops())
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace entry %d differs between builds", i)
		}
	}
}

func TestGPT3Scale(t *testing.T) {
	m := GPT3()
	if m.Ops() < 15000 || m.Ops() > 22000 {
		t.Errorf("GPT3 ops = %d, want ~18,000 (Sect. 7.4)", m.Ops())
	}
	chip := npu.Default()
	total := 0.0
	for i := range m.Trace {
		total += chip.Time(&m.Trace[i], 1800)
	}
	if sec := total / 1e6; sec < 4 || sec > 20 {
		t.Errorf("GPT3 iteration = %.2f s at 1800 MHz, want multi-second scale", sec)
	}
}

func TestTinyOperatorPopulation(t *testing.T) {
	// Sect. 7.2: the majority of operators are very short but
	// contribute ~1% of execution time. Verify the shape on GPT-3.
	chip := npu.Default()
	m := GPT3()
	var total, tinyTime float64
	tiny, compute := 0, 0
	for i := range m.Trace {
		s := &m.Trace[i]
		d := chip.Time(s, 1800)
		total += d
		if s.Class != op.Compute {
			continue
		}
		compute++
		if d < 20 {
			tiny++
			tinyTime += d
		}
	}
	frac := float64(tiny) / float64(compute)
	if frac < 0.4 || frac > 0.75 {
		t.Errorf("tiny-op fraction = %.2f, want around 0.58", frac)
	}
	if share := tinyTime / total; share > 0.05 {
		t.Errorf("tiny-op time share = %.3f, want ~0.01", share)
	}
}

func TestShuffleNetOperatorCount(t *testing.T) {
	m := ShuffleNetV2Plus()
	compute := 0
	for i := range m.Trace {
		if m.Trace[i].Class == op.Compute {
			compute++
		}
	}
	if compute < 3000 || compute > 5500 {
		t.Errorf("ShuffleNetV2Plus compute ops = %d, want ~4,343", compute)
	}
}

func TestModelsContainAllClasses(t *testing.T) {
	for _, m := range []*Model{GPT3(), BERT(), ResNet50()} {
		seen := map[op.Class]bool{}
		for i := range m.Trace {
			seen[m.Trace[i].Class] = true
		}
		for _, c := range []op.Class{op.Compute, op.AICPU, op.Communication, op.Idle} {
			if !seen[c] {
				t.Errorf("%s: no %v entries", m.Name, c)
			}
		}
	}
}

func TestModelsContainBothBoundKinds(t *testing.T) {
	// The Table 3 training models need both compute-bound (HFC) and
	// memory-bound (LFC) operators for DVFS to have anything to
	// exploit. (ShuffleNet and host-bound inference legitimately lack
	// cube-bound work.)
	chip := npu.Default()
	for _, m := range []*Model{GPT3(), BERT(), ResNet50(), ResNet152()} {
		cube, mem := false, false
		for i := range m.Trace {
			s := &m.Trace[i]
			if s.Class != op.Compute {
				continue
			}
			r := chip.Ratios(s, 1800)
			if r[op.Cube] > 0.5 {
				cube = true
			}
			if r[op.MTE2] > 0.6 || r[op.MTE3] > 0.6 {
				mem = true
			}
		}
		if !cube {
			t.Errorf("%s: no compute-bound operators", m.Name)
		}
		if !mem {
			t.Errorf("%s: no memory-bound operators", m.Name)
		}
	}
}

func TestRepresentativeOpsSpanPaperRange(t *testing.T) {
	chip := npu.Default()
	ops := RepresentativeOps()
	if len(ops) != 5 {
		t.Fatalf("got %d representative ops, want 5", len(ops))
	}
	for i := range ops {
		s := &ops[i]
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		d := chip.Time(s, 1500)
		if d < 20 || d > 500 {
			t.Errorf("%s: %g µs at 1500 MHz, want within the 20-300 µs band (tolerance to 500)", s.Name, d)
		}
	}
	if ops[0].Name != "Add" || ops[4].Name != "BNTrainingUpdate" {
		t.Error("representative op names/order changed")
	}
}

func TestLlama2InferenceHostBound(t *testing.T) {
	chip := npu.Default()
	m := Llama2Inference()
	var idle, total float64
	for i := range m.Trace {
		d := chip.Time(&m.Trace[i], 1800)
		total += d
		if m.Trace[i].Class == op.Idle {
			idle += d
		}
	}
	if frac := idle / total; frac < 0.25 {
		t.Errorf("idle fraction = %.2f; inference trace must be host-bound (Sect. 8.4)", frac)
	}
	// Compute ops must be overwhelmingly memory-bound (weight
	// streaming), so the whole step tolerates low frequency.
	at1800, at1300 := 0.0, 0.0
	for i := range m.Trace {
		at1800 += chip.Time(&m.Trace[i], 1800)
		at1300 += chip.Time(&m.Trace[i], 1300)
	}
	if slowdown := at1300/at1800 - 1; slowdown > 0.08 {
		t.Errorf("1300 MHz slowdown = %.3f, want small for host-bound inference", slowdown)
	}
}

func TestMicroOpRepeats(t *testing.T) {
	m := MicroOp(SoftmaxOp(), 7)
	if m.Ops() != 7 {
		t.Fatalf("MicroOp ops = %d, want 7", m.Ops())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := MicroOp(TanhOp(), 3).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPerfEvalModelsRoster(t *testing.T) {
	models := PerfEvalModels()
	if len(models) != 7 {
		t.Fatalf("got %d perf-eval models, want 7", len(models))
	}
	want := map[string]bool{
		"Resnet50": true, "Vit_base": true, "BERT": true, "Deit_small": true,
		"AlexNet": true, "ShufflenetV2plus": true, "VGG19": true,
	}
	for _, m := range models {
		if !want[m.Name] {
			t.Errorf("unexpected model %q", m.Name)
		}
	}
}

func TestResNet152LongerThanResNet50(t *testing.T) {
	chip := npu.Default()
	dur := func(m *Model) float64 {
		total := 0.0
		for i := range m.Trace {
			total += chip.Time(&m.Trace[i], 1800)
		}
		return total
	}
	d50, d152 := dur(ResNet50()), dur(ResNet152())
	if d152 < 1.5*d50 {
		t.Errorf("ResNet152 (%.1f ms) should be ~2x ResNet50 (%.1f ms)", d152/1000, d50/1000)
	}
}

func TestMixtralMoEShape(t *testing.T) {
	chip := npu.Default()
	m := MixtralMoE()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var total, insens float64
	comm := 0
	for i := range m.Trace {
		s := &m.Trace[i]
		d := chip.Time(s, 1800)
		total += d
		if s.Class == op.Communication {
			comm++
			insens += d
		}
		if s.Class == op.Idle || s.Class == op.AICPU {
			insens += d
		}
	}
	if comm < 50 {
		t.Errorf("MoE trace has only %d communication ops; AllToAll should dominate", comm)
	}
	// The MoE non-compute share must be substantial — the property
	// that makes MoE a distinctive DVFS subject.
	if frac := insens / total; frac < 0.10 {
		t.Errorf("non-compute share = %.2f, want > 10%%", frac)
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// One shared model per name, whatever the spelling, equal to
		// what the constructor builds and never the constructor's own.
		if again, _ := ByName(strings.ToUpper(name)); again != m {
			t.Errorf("%s: ByName returned two models, want the shared one twice", name)
		}
		fresh := builders[name]()
		if fresh == m || &fresh.Trace[0] == &m.Trace[0] {
			t.Errorf("%s: the constructor handed out the shared model", name)
		}
		if fresh.Name != m.Name || !reflect.DeepEqual(fresh.Trace, m.Trace) {
			t.Errorf("%s: shared model differs from a freshly built one", name)
		}
	}
	if _, err := ByName("no-such-model"); err == nil {
		t.Error("unknown name resolved")
	}
}

// TestByNameAllocatesNothing holds resolving a registry name, the first
// thing every named submission does, to zero allocations once the model
// is built: the registry hands out its one shared model (42,330
// allocations a call when every request rebuilt GPT-3's trace).
func TestByNameAllocatesNothing(t *testing.T) {
	var err error
	n := testing.AllocsPerRun(1, func() { _, err = ByName("gpt3") })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("ByName(\"gpt3\") made %v allocations, want 0 (one shared model per registry name)", n)
	}
}
