package pipeline

import (
	"reflect"
	"sync"
	"testing"

	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// A bundle serves a job only on the trace it was fitted on: the
// registry trace of its name. An empty bundle fits no operator, so a
// job it served has no performance models, and a built one has some.
func TestModelsForServesOnlyTheFittedTrace(t *testing.T) {
	lab := NewLab()
	empty := &traceio.ModelBundle{}
	vit, err := workload.ByName("vit")
	if err != nil {
		t.Fatal(err)
	}
	borrowed := workload.ViTBase()
	borrowed.Name = "resnet50"
	cases := []struct {
		name       string
		m          *workload.Model
		named      bool
		bundleKey  string
		fromBundle bool
	}{
		// A named job is the registry's trace, whatever its model is called.
		{"named", vit, true, "vit_base", true},
		{"inline registry trace", workload.ResNet50(), false, "resnet50", true},
		{"inline trace under a bundle's name", borrowed, false, "resnet50", false},
		// "vit_base" is the model's name, not a registry name.
		{"inline trace, bundle name not in registry", workload.ViTBase(), false, "vit_base", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fingerprint := ""
			if !c.named {
				fingerprint = traceio.Fingerprint(c.m.Trace)
			}
			ms, err := lab.ModelsFor(c.m, c.named, fingerprint, map[string]*traceio.ModelBundle{c.bundleKey: empty})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(ms.Perf) == 0; got != c.fromBundle {
				t.Errorf("served from the bundle: %v, want %v", got, c.fromBundle)
			}
		})
	}
}

// Server workers share one Lab, so the first model builds race for its
// offline calibration; every one of them must get the same models.
func TestModelsForConcurrentBuildsAgree(t *testing.T) {
	lab := NewLab()
	m, err := workload.ByName("vit")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	got := make([]*Models, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = lab.ModelsFor(m, true, "", nil)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i].Perf, got[0].Perf) || !reflect.DeepEqual(got[i].Power, got[0].Power) {
			t.Errorf("build %d differs from build 0", i)
		}
	}
}
