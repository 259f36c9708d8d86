package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// builders maps canonical lowercase names to model constructors.
var builders = map[string]func() *Model{
	"gpt3":             GPT3,
	"bert":             BERT,
	"resnet50":         ResNet50,
	"resnet152":        ResNet152,
	"vgg19":            VGG19,
	"vit":              ViTBase,
	"deit":             DeiTSmall,
	"shufflenetv2plus": ShuffleNetV2Plus,
	"llama2-inference": Llama2Inference,
	"mixtral-moe":      MixtralMoE,
}

// shared holds one slot per registry name: the slot runs the name's
// constructor on the first ByName that asks for it and hands every
// later caller the same *Model.
var shared = func() map[string]func() *Model {
	slots := make(map[string]func() *Model, len(builders))
	for name, build := range builders {
		slots[name] = sync.OnceValue(build)
	}
	return slots
}()

// Names lists the registered workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName returns the registry workload of that name
// (case-insensitive). The model is built once per process and shared by
// every caller, on any goroutine: it is read-only, Name and Trace
// elements alike. A caller that wants to edit a trace calls Build or a
// constructor (GPT3, BERT, ...), which builds a fresh model it owns.
func ByName(name string) (*Model, error) {
	get, ok := shared[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("workload: unknown model %q (available: %s)",
			name, strings.Join(Names(), ", "))
	}
	return get(), nil
}

// Build returns a fresh copy of the registry workload of that name
// (case-insensitive), owned by the caller; the registry keeps none.
func Build(name string) (*Model, error) {
	build, ok := builders[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("workload: unknown model %q (available: %s)", name, strings.Join(Names(), ", "))
	}
	return build(), nil
}
