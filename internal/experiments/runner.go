package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"npudvfs/internal/pool"
)

// This file is the parallel experiment harness: a registry naming
// every experiment the Harness can regenerate, and a worker-pool runner
// (internal/pool) that fans them out across goroutines with
// deterministic result ordering.
//
// Determinism rule: every experiment derives its stochasticity from
// fixed per-experiment seeds (GA seeds, sensor offsets), never from a
// source shared across goroutines, so the parallel schedule cannot
// change any result. The same rule holds inside experiments that fan
// out across workloads or seeds via pool.Each: randomness is seeded
// per work item, not per worker, so item i sees identical draws no
// matter which worker runs it. The only shared mutable state is the
// sync.Once-guarded calibration (the Lab's) and GPT-3 models (the
// Harness's) and the Executor's locked view cache, all safe (and
// deterministic) under concurrency.

// Spec is one named, runnable experiment.
type Spec struct {
	// Name is the identifier used by cmd/experiments -run.
	Name string
	// Run regenerates the experiment on the harness. ctx carries the
	// harness's per-experiment deadline: every experiment that runs a
	// genetic search observes it (the search cancels at generation
	// boundaries) and returns an error wrapping ctx.Err(); cheap
	// model-validation experiments ignore it.
	// TestSearchesHonourCancellation requires the former of every
	// entry not on its search-free list.
	Run func(ctx context.Context, l *Harness) (fmt.Stringer, error)
}

// Registry returns every experiment in canonical order — the order
// serial runs execute in and parallel runs report in.
func Registry() []Spec {
	return []Spec{
		{"fig3", func(_ context.Context, l *Harness) (fmt.Stringer, error) { return l.Fig3(), nil }},
		{"fig4", func(_ context.Context, l *Harness) (fmt.Stringer, error) { return l.Fig4(), nil }},
		{"fig9", func(_ context.Context, l *Harness) (fmt.Stringer, error) { return l.Fig9(), nil }},
		{"fig10", func(_ context.Context, l *Harness) (fmt.Stringer, error) { return l.Fig10() }},
		{"fig15", func(_ context.Context, l *Harness) (fmt.Stringer, error) { return l.Fig15() }},
		{"fig16", func(_ context.Context, l *Harness) (fmt.Stringer, error) { return l.Fig16() }},
		{"fig17", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.Fig17(ctx) }},
		{"fig18", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.Fig18(ctx) }},
		{"table2", func(_ context.Context, l *Harness) (fmt.Stringer, error) { return l.Table2() }},
		{"table3", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.Table3(ctx) }},
		{"fitcost", func(_ context.Context, l *Harness) (fmt.Stringer, error) { return l.FitCost() }},
		{"inference", func(_ context.Context, l *Harness) (fmt.Stringer, error) { return l.Inference() }},
		{"throughput", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.ScoringThroughput(ctx, 20000) }},
		{"modelfree", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.ModelFree(ctx) }},
		{"uncore", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.UncoreDVFS(ctx) }},
		{"sensitivity", func(_ context.Context, l *Harness) (fmt.Stringer, error) {
			return l.Sensitivity(float64(l.Chip.Curve.Max()), float64(l.Chip.Curve.Plan().PriorLFC)), nil
		}},
		{"faisweep", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.FAISweep(ctx) }},
		{"seeds", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.SeedsRobustness(ctx) }},
		{"pareto", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.Pareto(ctx) }},
		{"attribution", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.Attribution(ctx) }},
		{"search", func(ctx context.Context, l *Harness) (fmt.Stringer, error) { return l.SearchAblation(ctx) }},
	}
}

// ExperimentNames lists the registry's names in canonical order.
func ExperimentNames() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, s := range reg {
		names[i] = s.Name
	}
	return names
}

// Select resolves a name list against the registry, preserving
// canonical order. nil, empty, or a list containing "all" selects
// everything; unknown names are a descriptive error.
func Select(names []string) ([]Spec, error) {
	reg := Registry()
	if len(names) == 0 {
		return reg, nil
	}
	want := make(map[string]bool)
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if n == "all" {
			return reg, nil
		}
		want[n] = true
	}
	var out []Spec
	for _, s := range reg {
		if want[s.Name] {
			out = append(out, s)
			delete(want, s.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("experiments: unknown experiment(s) %s (available: %s)",
			strings.Join(unknown, ", "), strings.Join(ExperimentNames(), ", "))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no experiment selected")
	}
	return out, nil
}

// Outcome is one experiment's result as produced by RunSuite.
type Outcome struct {
	// Name is the experiment's registry name.
	Name string
	// Result is the typed result (nil on error or timeout); it may
	// implement the chart interfaces consumed by cmd/experiments -svg.
	Result fmt.Stringer
	// Report is Result rendered to text. It contains no wall-clock
	// time, so serial and parallel runs render byte-identical reports.
	Report string
	// Elapsed is the experiment's wall time.
	Elapsed time.Duration
	// Err is the experiment's failure, including timeouts.
	Err error
}

// Header is the report's first line, "=== name ===". A result that
// measures wall time (fitcost, throughput, fig17, search) has a Timing
// method, and the header carries its times, "=== name (times) ===", so
// the report below stays byte-identical from run to run.
func (o Outcome) Header() string {
	if t, ok := o.Result.(interface{ Timing() string }); ok {
		return fmt.Sprintf("=== %s (%s) ===", o.Name, t.Timing())
	}
	return "=== " + o.Name + " ==="
}

// RunSuite executes the named experiments (nil or "all" = the full
// registry) on up to l.Parallel workers, with an optional
// per-experiment timeout (0 = none). Outcomes are returned in
// canonical registry order regardless of completion order; with
// l.Parallel <= 1 execution order equals report order, matching the
// historical serial harness exactly. Errors are per-outcome, not
// returned, so one failing experiment cannot hide the others' results.
//
// Cancelling ctx stops unstarted experiments from launching (their
// outcomes stay zero-valued, with an empty Name) and reaches every
// running search at its next generation boundary. cmd/experiments
// wires an interrupt-cancelled context here so ^C drains the suite
// instead of killing it mid-write.
func (l *Harness) RunSuite(ctx context.Context, names []string, timeout time.Duration) ([]Outcome, error) {
	specs, err := Select(names)
	if err != nil {
		return nil, err
	}
	out := make([]Outcome, len(specs))
	perr := pool.Each(ctx, l.Seed, len(specs), l.workers(), func(i int, _ *rand.Rand) error {
		out[i] = runOne(ctx, l, specs[i], timeout)
		return nil
	})
	return out, perr
}

// cancelGrace is how long runOne waits, after the deadline fires, for
// a cancellation-aware experiment to observe ctx and unwind. GA-backed
// experiments cancel at generation boundaries (milliseconds), so this
// comfortably separates "cancelled cleanly" from "ignores ctx".
const cancelGrace = time.Second

// runOne executes a single experiment, enforcing the timeout through
// the experiment's context. A cancellation-aware experiment returns an
// error wrapping context.DeadlineExceeded and its goroutine exits; an
// experiment that ignores ctx past the grace window is abandoned (its
// goroutine keeps running until its next cancellation point — or to
// completion — and its eventual result is discarded). The two cases
// report distinct errors: only the clean one satisfies
// errors.Is(err, context.DeadlineExceeded).
func runOne(ctx context.Context, l *Harness, s Spec, timeout time.Duration) Outcome {
	sw := startStopwatch()
	if timeout <= 0 {
		res, err := s.Run(ctx, l)
		return finishOutcome(s.Name, res, err, sw.elapsed())
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type done struct {
		res fmt.Stringer
		err error
	}
	ch := make(chan done, 1)
	go func() {
		res, err := s.Run(ctx, l)
		ch <- done{res, err}
	}()
	cancelled := func(d done) Outcome {
		return Outcome{
			Name:    s.Name,
			Elapsed: sw.elapsed(),
			Err:     fmt.Errorf("experiments: %s timed out after %s (search cancelled): %w", s.Name, timeout, d.err),
		}
	}
	select {
	case d := <-ch:
		if d.err != nil && errors.Is(d.err, context.DeadlineExceeded) {
			return cancelled(d)
		}
		return finishOutcome(s.Name, d.res, d.err, sw.elapsed())
	case <-ctx.Done():
		grace := time.NewTimer(cancelGrace)
		defer grace.Stop()
		select {
		case d := <-ch:
			if d.err != nil && errors.Is(d.err, context.DeadlineExceeded) {
				return cancelled(d)
			}
			// Finished (or failed for an unrelated reason) in the
			// grace window: a result that just beat the deadline is
			// better reported than discarded.
			return finishOutcome(s.Name, d.res, d.err, sw.elapsed())
		case <-grace.C:
			return Outcome{
				Name:    s.Name,
				Elapsed: timeout,
				Err:     fmt.Errorf("experiments: %s timed out after %s (abandoned; experiment ignores cancellation)", s.Name, timeout),
			}
		}
	}
}

// finishOutcome keeps res only on success: a failed experiment returns
// a typed nil (say (*Table3Result)(nil)), which would be a non-nil
// fmt.Stringer in Result.
func finishOutcome(name string, res fmt.Stringer, err error, elapsed time.Duration) Outcome {
	o := Outcome{Name: name, Elapsed: elapsed, Err: err}
	if err == nil && res != nil {
		o.Result = res
		o.Report = res.String()
	}
	return o
}
