package main

import (
	"npudvfs/internal/traceio"
)

// clients is the closed loop's width: callers of dvfsd are job
// launchers that wait for their strategy, and the host has two cores,
// which the generator and the daemon already share. More clients than
// cores would measure the scheduler.
const clients = 2

// rotation is the trace mix of the rotating workloads, smallest to
// largest (1,195 / 5,430 / 18,482 operators). At 1:1:1 the median
// latency falls inside the BERT mode and p90 inside the GPT-3 mode, so
// neither percentile sits on a mode boundary.
var rotation = []string{"resnet50", "bert", "gpt3"}

// buildTrace is cold_build's single trace. The issue sized the
// workload on resnet50 (≈0.5 s per fit, ~120 jobs in a 30 s window);
// at the 20 s window the time cap allows, that leaves ~65 samples, too
// few for a p90. vit is the registry's cheapest trace to fit (≈0.16 s,
// the same four profiling runs with thermal warm-up), which keeps the
// workload's point — the job is nearly all Lab.BuildModels — and gives
// the tail its samples.
const buildTrace = "vit"

// losses are the target_loss values hot_named spreads its keys over
// and cold_build cycles through.
var losses = [4]float64{0.01, 0.02, 0.03, 0.05}

// request is one generated logical request: which registry trace, the
// canonical search spec, and whether its key repeats (hot) or is
// unique to this request (cold).
type request struct {
	Trace string
	Hot   bool
	Spec  traceio.SearchSpec
}

// key identifies the strategy the request asks for; it stands in for
// the server's cache key (trace fingerprint + spec hash) without
// paying for a fingerprint.
func (r request) key() string { return r.Trace + ":" + r.Spec.ConfigHash() }

// workloadDef describes one benchmark workload: how its daemon is
// started and which request client c issues at step k.
type workloadDef struct {
	name string
	why  string
	// traces are the registry workloads the requests draw from.
	traces []string
	// bundles starts the daemon with -load-models for every trace;
	// without it every cold job fits its models from scratch.
	bundles bool
	// fsStore starts the daemon with a durable -store directory.
	fsStore bool
	// inline submits the trace in the body instead of by name.
	inline bool
	// warm is how many untimed requests each client issues before the
	// window: one pass over the workload's request pattern, which
	// finishes the daemon's lazy initialisation (Lab.Offline on
	// cold_build) and grows its heap to working size.
	warm int
	// replay is how many requests the traced replay covers. The
	// replay runs every cold request twice (served, then mirrored), so
	// the cold workloads replay fewer.
	replay int
	// gen returns the request client c issues at step k.
	gen func(base int64, c, k int) request
}

// search returns a canonical spec.
func search(loss float64, pop, gens int, seed int64) traceio.SearchSpec {
	s := traceio.SearchSpec{TargetLoss: loss, Pop: pop, Gens: gens, Seed: seed}
	// The arguments are in range by construction, so Canonicalize can
	// only fill defaults.
	if err := s.Canonicalize(); err != nil {
		panic(err)
	}
	return s
}

// production is dvfsd's default search (pop 200, gens 600); small is
// the cheapest search the API accepts in practice, used where the
// workload is about something other than the search.
func production(loss float64, seed int64) traceio.SearchSpec { return search(loss, 200, 600, seed) }
func small(loss float64, seed int64) traceio.SearchSpec      { return search(loss, 16, 8, seed) }

// seedBase maps -seed to the seed hot keys and probes use. SearchSpec
// treats seed 0 as "default 1", which would make -seed 0 and -seed 1
// generate the same inputs; shifting the non-negative seeds up by one
// keeps the mapping injective and never 0.
func seedBase(seed int64) int64 {
	if seed >= 0 {
		return seed + 1
	}
	return seed
}

// coldSeed gives request k of client c a search seed no other request
// of the run has, so its cache key is unique and the sequence is
// identical run to run.
func coldSeed(base int64, c, k int) int64 { return base + int64(c+1)*1_000_000 + int64(k) }

var workloads = []*workloadDef{
	{
		name: "hot_named",
		why: "named r/b/g traces x 4 fixed specs, all primed, 100% cache hits: only decode, Resolve, Fingerprint, " +
			"LRU, store.Add and encode run; model build and search do nothing here",
		traces: rotation, bundles: true,
		warm: 12, replay: 30,
		gen: func(base int64, c, k int) request {
			j := (c + k) % (len(rotation) * len(losses))
			return request{Trace: rotation[j%len(rotation)], Hot: true,
				Spec: production(losses[j/len(rotation)], base)}
		},
	},
	{
		name: "cold_search",
		why: "same rotation, production search (pop 200, gens 600), unique seed per request: both workers saturated by " +
			"preprocess, evaluator build and GA; model build is one profiler run (bundle path)",
		traces: rotation, bundles: true,
		warm: 3, replay: 12,
		gen: func(base int64, c, k int) request {
			return request{Trace: rotation[(c+k)%len(rotation)],
				Spec: production(0.02, coldSeed(base, c, k))}
		},
	},
	{
		name: "cold_build",
		why: "vit only, no bundles, tiny search, unique seed, target_loss cycling: ~97% of each job is " +
			"Lab.BuildModels, the layer a model cache would remove; bypasses cold_search's mechanisms",
		traces: []string{buildTrace},
		warm:   1, replay: 12,
		gen: func(base int64, c, k int) request {
			return request{Trace: buildTrace,
				Spec: small(losses[(c+k)%len(losses)], coldSeed(base, c, k))}
		},
	},
	{
		name: "inline_durable",
		why: "inline MB-scale trace bodies against the fs job store, 4 hot : 1 cold per client: body decode and " +
			"ReadWorkload replace ByName, and durable record writes join poll reads",
		traces: rotation, bundles: true, fsStore: true, inline: true,
		warm: 5, replay: 30,
		gen: func(base int64, c, k int) request {
			r := request{Trace: rotation[(c+k)%len(rotation)], Hot: k%5 != 4, Spec: small(0.02, base)}
			if !r.Hot {
				r.Spec.Seed = coldSeed(base, c, k)
			}
			return r
		},
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// probeLoss is the probes' target_loss, the paper's production 2 %.
const probeLoss = 0.02

// probe returns the probe request for one trace: the production search
// under the run's seed, whatever search the workload's own requests
// use. Its strategy, as the child serves it, is executed on the
// simulator to measure what served strategies are worth. (The tiny
// searches of cold_build and inline_durable are there to keep the
// search out of the way; their strategies' quality is noise.)
func probe(base int64, trace string) request {
	return request{Trace: trace, Spec: production(probeLoss, base)}
}

// hotKeys lists the distinct hot requests, in first-use order, by
// walking one full cycle of each client's sequence. They are primed
// before the window so every hot request in it is a cache hit.
func (w *workloadDef) hotKeys(base int64) []request {
	var out []request
	seen := make(map[string]bool)
	for k := 0; k < 60; k++ {
		for c := 0; c < clients; c++ {
			r := w.gen(base, c, k)
			if r.Hot && !seen[r.key()] {
				seen[r.key()] = true
				out = append(out, r)
			}
		}
	}
	return out
}
